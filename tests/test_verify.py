"""The verify suite against its check-major oracle in ``slow_paths``.

``run_verification`` walks the corpus map by map, checks each distinct map
once, and the checks of a map share one ``verify.Derived`` record.  The
oracle runs every check over every draw of the corpus, builds each derived
map and code inside the check and compares orbit partitions as sets.  The
two must render the same bytes, fail the same checks when a construction
is replaced by a wrong one, and the record must build each derived object
once per distinct map, and walk only the derived maps whose orbits a
check reads.
"""

import sys

import pytest

import slow_paths
from hypermap_codes import (
    Hypermap,
    QuotientCode,
    compose,
    inverse,
    random_corpus,
    run_verification,
)
from hypermap_codes import chain, hypermap, verify
from hypermap_codes.cli import main


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_report_bytes_match_check_major_oracle(seed):
    new = run_verification(100, 10, seed)
    old = slow_paths.run_verification(100, 10, seed)
    assert new.passed and old.passed
    assert new.render() == old.render()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_cli_report_of_500_trials_matches_oracle(seed, capsys):
    expected = slow_paths.run_verification(500, 10, seed).render()
    assert main(["verify", "--trials", "500", "--seed", str(seed), "--max-darts", "10"]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("seed", [1, 3, 8])
def test_failing_report_bytes_match_oracle(seed, capsys, monkeypatch):
    # one check fails on the odd-dart maps, another raises on the 6-dart maps
    old_checks = list(slow_paths.VERIFY_CHECKS)
    old_checks[0] = ("dual-involution", lambda h: h.n % 2 == 0)
    old_checks[10] = ("special-dart-transfer", lambda h: h.n < 6 or len(h))
    new_checks = list(verify.VERIFY_CHECKS)
    new_checks[0] = ("dual-involution", lambda x: x.h.n % 2 == 0)
    new_checks[10] = ("special-dart-transfer", lambda x: x.h.n < 6 or len(x.h))
    monkeypatch.setattr(verify, "VERIFY_CHECKS", new_checks)
    expected = slow_paths.run_verification(100, 10, seed, old_checks).render()
    assert "raised TypeError" in expected
    assert main(["verify", "--trials", "100", "--max-darts", "10", "--seed", str(seed)]) == 3
    assert capsys.readouterr() == (expected, "")


# ---------------------------------------------------------------------------
# every check still calls the construction it is named for

def _rotated(h):
    """A valid hypermap on the same darts that is no involution of ``h``."""
    return Hypermap(inverse(h.sigma), h.alpha)


def _max_special(build, orbits_of):
    """``build`` with the maximum dart of each orbit in place of the given set
    (by default the orbit minima), which the code still reports as its own."""
    def wrong(h, special=None):
        if special is None:
            special = [min(o) for o in orbits_of(h)]
        code = build(h, [max(o) for o in orbits_of(h)])
        return QuotientCode(code.kind, frozenset(special), code.qubit_labels, code.ends,
                            code.sides, code.z_labels, code.x_labels)
    return wrong


def _raising(original):
    def wrong(*args):
        raise RuntimeError("no construction here")
    return wrong


WRONG_VARIANTS = [
    ("dual", lambda original: lambda h: h),
    ("dual", lambda original: _rotated),
    ("triangle_dual", lambda original: lambda h: h),
    ("triangle_dual", lambda original: _rotated),
    ("contrary", lambda original: lambda h: h),
    ("contrary", lambda original: _rotated),
    ("nabla", lambda original: lambda h: h),
    ("nabla", lambda original: _rotated),
    ("face_code", lambda original: _max_special(original, lambda h: h.edges)),
    ("edge_code", lambda original: _max_special(original, lambda h: h.faces)),
    ("dual", _raising),
    ("face_code", _raising),
]


def _failing(report):
    return {c.name for c in report.checks if c.failures}


def _patch_everywhere(monkeypatch, name, wrong):
    """Bind ``name`` to ``wrong`` in every module of the package that binds
    the original (its functions call each other) and in the oracle."""
    original = getattr(verify, name)
    modules = [m for n, m in sys.modules.items() if n.startswith("hypermap_codes")]
    for module in modules + [slow_paths]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrong)


@pytest.mark.parametrize("name,variant", WRONG_VARIANTS,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(WRONG_VARIANTS)])
def test_wrong_construction_fails_the_same_checks(name, variant, monkeypatch):
    _patch_everywhere(monkeypatch, name, variant(getattr(verify, name)))
    new = run_verification(60, 8, 11)
    old = slow_paths.run_verification(60, 8, 11)
    assert _failing(new) == _failing(old)
    assert _failing(new), f"no check noticed a wrong {name}"
    assert new.render() == old.render()


def test_each_named_construction_is_noticed(monkeypatch):
    """Patching only the verify module's binding still fails a check named
    for that construction: the record calls the module-level name."""
    named = {"dual": "dual-", "triangle_dual": "triangle-dual-", "contrary": "contrary-",
             "nabla": "nabla-", "face_code": "face-", "edge_code": "face-edge-"}
    for name, variant in WRONG_VARIANTS:
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, variant(getattr(verify, name)))
            failing = _failing(run_verification(60, 8, 11))
        assert any(named[name] in check for check in failing), (name, failing)


def test_raising_construction_fails_every_check_that_needs_it(monkeypatch):
    """A property that raises is not cached: each check that needs it calls
    the construction again and reports its own error."""
    calls = []

    def broken(h):
        calls.append(h)
        raise RuntimeError("no dual here")

    monkeypatch.setattr(verify, "dual", broken)
    report = run_verification(5, 6, 2)
    failed = [c for c in report.checks if c.failures]
    assert {c.name for c in failed} == {
        "dual-involution", "dual-preserves-edges", "dual-swaps-vertices-faces",
        "nabla-swaps-dual-edges-faces", "nabla-is-triangle-dual-of-dual",
        "dual-face-nabla-edge-transfer"}
    assert all(c.failures == 5 and c.first_failure.endswith(" raised RuntimeError: no dual here")
               for c in failed)
    assert len(calls) == len(failed) * _distinct(5, 6, 2)


# ---------------------------------------------------------------------------
# each distinct map is checked once, and its derived objects built once

def _distinct(trials, max_darts, seed):
    return len({(h.alpha.images, h.sigma.images)
                for h in random_corpus(trials, max_darts, seed)})


def _count_builds(monkeypatch, run, trials, max_darts, seed):
    """(Hypermap builds, of them through the validating constructor, orbit
    walks of drawn maps, orbit walks of derived maps, quotient-code builds)
    of one run, past those of its corpus, whose draws are built unchecked."""
    calls = {"init": 0, "derived": 0, "quotient": 0}
    walked, made, drawn = [], [], []  # the maps themselves, so no id is reused
    init, derived, walk = Hypermap.__init__, hypermap._derived, hypermap._walk_orbits
    draw, quotient = hypermap._random_transitive_pair, chain._quotient_code

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def derived_map(*args):
        d = derived(*args)
        made.append(d)
        return d

    def drawn_map(*args):
        h = draw(*args)
        drawn.append(h)
        return h

    with monkeypatch.context() as patch:
        patch.setattr(Hypermap, "__init__", counted("init", init))
        patch.setattr(hypermap, "_derived", counted("derived", derived_map))
        patch.setattr(hypermap, "_random_transitive_pair", drawn_map)
        patch.setattr(hypermap, "_walk_orbits", lambda h: walked.append(h) or walk(h))
        patch.setattr(chain, "_quotient_code", counted("quotient", quotient))
        random_corpus(trials, max_darts, seed)
        assert calls["derived"] == len(drawn) == trials
        assert calls["init"] == calls["quotient"] == len(walked) == 0
        run(trials, max_darts, seed)
    derived_ids = set(map(id, made)) - set(map(id, drawn))
    derived_walks = sum(id(h) in derived_ids for h in walked)
    return (calls["init"] + calls["derived"] - len(drawn), calls["init"],
            len(walked) - derived_walks, derived_walks, calls["quotient"])


def test_record_builds_each_derived_object_once_per_map(monkeypatch):
    # no derived map is validated; each distinct draw is walked once and a
    # repeated draw never, and each of the five derived maps whose orbits a
    # check reads (dual, triangle dual, contrary, nabla, triangle dual of the
    # dual) is walked once
    distinct = _distinct(50, 10, 4)
    assert distinct < 50
    builds = _count_builds(monkeypatch, run_verification, 50, 10, 4)
    assert tuple(b / distinct for b in builds) == (9, 0, 1, 5, 5)
    # the oracle, as each check built its own for every draw
    builds = _count_builds(monkeypatch, slow_paths.run_verification, 50, 10, 4)
    assert tuple(b / 50 for b in builds[:2] + builds[4:]) == (23, 0, 12)


def _walks_per_map(monkeypatch, trials, max_darts, seed):
    """Per distinct map of one run: the map and the image tuples ``hypermap._orbits``
    walked while its checks ran, in walk order."""
    walked, per_map = [], []
    orbits, verdicts = hypermap._orbits, verify._verdicts

    def checked(x):
        start = len(walked)
        out = verdicts(x)
        per_map.append((x.h, walked[start:]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(hypermap, "_orbits", lambda images: walked.append(tuple(images))
                      or orbits(images))
        patch.setattr(verify, "_verdicts", checked)
        assert run_verification(trials, max_darts, seed).passed
    assert len(per_map) == _distinct(trials, max_darts, seed)
    return per_map


def _six_permutations(h):
    """The images of sigma, alpha and alpha^-1 sigma and of their inverses."""
    phi = compose(inverse(h.alpha), h.sigma)
    return {p.images for q in (h.sigma, h.alpha, phi) for p in (q, inverse(q))}


@pytest.mark.parametrize("max_darts", [10, 16])
def test_a_dual_family_walks_each_of_its_six_permutations_once(max_darts, monkeypatch):
    # the six maps whose orbits the checks read share one walk table
    per_map = _walks_per_map(monkeypatch, 500, max_darts, 7)
    for h, walked in per_map:
        assert len(walked) == len(set(walked)) <= 6
        assert set(walked) == _six_permutations(h)
    # a map whose sigma, alpha or phi is an involution walks fewer
    assert sum(len(walked) for _, walked in per_map) < 6 * len(per_map)
    # without the table each of the six walks its three permutations
    monkeypatch.setattr(hypermap, "_family_walks", lambda h: None)
    per_map = _walks_per_map(monkeypatch, 500, max_darts, 7)
    assert all(len(walked) == 18 for _, walked in per_map)


@pytest.mark.parametrize("seed", [7, 11])
def test_report_bytes_match_oracle_up_to_16_darts(seed, capsys):
    expected = slow_paths.run_verification(500, 16, seed).render()
    assert main(["verify", "--trials", "500", "--max-darts", "16", "--seed", str(seed)]) == 0
    assert capsys.readouterr() == (expected, "")


def test_each_distinct_map_is_checked_once(monkeypatch):
    checked = []
    checks = list(verify.VERIFY_CHECKS)
    checks[0] = ("dual-involution", lambda x: checked.append(x.h) or True)
    monkeypatch.setattr(verify, "VERIFY_CHECKS", checks)
    assert run_verification(500, 10, 1).passed
    assert len(checked) == len(set(checked)) == _distinct(500, 10, 1) < 500


@pytest.mark.parametrize("seed", [1, 2])
def test_failures_of_repeated_draws_count_per_draw(seed, monkeypatch):
    """Every draw of the one 1-dart map fails; each counts, as in the oracle."""
    ones = sum(h.n == 1 for h in random_corpus(500, 10, seed))
    assert ones > 1
    old_checks = list(slow_paths.VERIFY_CHECKS)
    old_checks[3] = ("triangle-dual-involution", lambda h: h.n > 1)
    new_checks = list(verify.VERIFY_CHECKS)
    new_checks[3] = ("triangle-dual-involution", lambda x: x.h.n > 1)
    monkeypatch.setattr(verify, "VERIFY_CHECKS", new_checks)
    new = run_verification(500, 10, seed)
    assert [c.failures for c in new.checks] == [0, 0, 0, ones] + [0] * 13
    assert new.render() == slow_paths.run_verification(500, 10, seed, old_checks).render()


# ---------------------------------------------------------------------------
# a wrong dual that keeps the edges

def _dual_keeping_alpha(h):
    """(alpha, alpha sigma): the edges of the true dual, and nothing else of it."""
    return hypermap._derived(h.alpha, compose(h.alpha, h.sigma))


@pytest.mark.parametrize("seed", [1, 7])
def test_dual_keeping_alpha_fails_an_orbit_check(seed, monkeypatch):
    _patch_everywhere(monkeypatch, "dual", _dual_keeping_alpha)
    new = run_verification(500, 10, seed)
    # its edges really are the orbits of alpha, so dual-preserves-edges holds
    assert _failing(new) == {"dual-involution", "dual-swaps-vertices-faces",
                             "nabla-is-triangle-dual-of-dual", "dual-face-nabla-edge-transfer"}
    assert new.render() == slow_paths.run_verification(500, 10, seed).render()


def test_record_shares_per_map_objects(torus8):
    x = verify.Derived(torus8)
    assert x.dual is x.dual and x.face_code is x.face_code and x.edge_code is x.edge_code
    assert x.face_code.special == frozenset({0, 4})  # the minimum of each edge
    assert x.edge_code.special == frozenset({0, 1, 2, 3})  # and of each face
    assert x.face_code.k == 2


def test_passing_maps_share_one_verdict_tuple(torus8, monkeypatch):
    other = random_corpus(1, 10, 2)[0]
    assert other != torus8
    first, second = verify._verdicts(verify.Derived(torus8)), verify._verdicts(verify.Derived(other))
    assert first == (None,) * len(verify.VERIFY_CHECKS)
    assert second is first
    # and every distinct map of a passing run keeps that one tuple
    kept = []
    verdicts = verify._verdicts
    monkeypatch.setattr(verify, "_verdicts", lambda x: kept.append(verdicts(x)) or kept[-1])
    assert run_verification(200, 10, 3).passed
    assert len(kept) > 1 and all(v is first for v in kept)


def test_the_corpus_is_drawn_map_by_map():
    """At most 2 darts there are four distinct maps, so the memory a run
    holds must not grow with its draws: 3000 of them held at once would take
    about 2 MiB."""
    import tracemalloc

    run_verification(50, 2, 1)  # the first run's one-time allocations
    tracemalloc.start()
    try:
        assert run_verification(3000, 2, 1).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
