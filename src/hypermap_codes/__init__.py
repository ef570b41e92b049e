"""CSS stabilizer codes from combinatorial hypermaps.

Build face, edge, and full-complex codes from a permutation pair, take
the dual / triangle-dual / contrary hypermaps, reduce face codes to
surface-code cell complexes, and machine-check every equivalence between
those constructions.
"""

from .perm import (
    MAX_DARTS,
    Cycles,
    CycleParseError,
    Permutation,
    compose,
    connected_components,
    cycle_decomposition,
    format_cycles,
    identity,
    inverse,
    is_transitive,
    parse_cycles,
    random_permutation,
)
from .gf2 import dense_rows
from .hypermap import (
    DisconnectedError,
    Hypermap,
    ParseError,
    contrary,
    dual,
    euler_characteristic,
    format_hypermap,
    genus,
    nabla,
    parse_hypermap,
    random_corpus,
    random_hypermap,
    triangle_dual,
)
from .chain import (
    EDGE,
    FACE,
    FULL,
    CommutationError,
    QuotientCode,
    SpecialDartError,
    edge_code,
    face_code,
    full_code,
)
from .css import DistanceResult, distance, stabilizer_strings
from .reduce import CellComplex, CheckResult, SurfaceReport, reduce_to_surface, validate_surface
from .export import export_json, export_walsh_dot, parse_json
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"
