"""End-to-end acceptance checks for the inference pipeline.

Each test prints a single PASS/FAIL line so the suite doubles as a checklist
when run with `pytest -s`.  Golden values were frozen against independent
enumeration oracles; property suites draw from the seeded random generators in
conftest (override with TROPINF_SEED).
"""

import math
import random
import time
from fractions import Fraction as F

from tropinf.algebra import Poly, ProbAssignment, poly_to_text
from tropinf.geometry import np_min, vn
from tropinf.infer import analyze, i2_contains, solve_i1, solve_i2
from tropinf.lang import enumerate_trajectories
from tropinf.typesys import stabilize

from conftest import SEED, load, random_program
from eval_reference import CountPoly, eval_prob, eval_trop, monomial
from hull_reference import winners
from replay_reference import replay_word


def _report(name, ok, elapsed):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({elapsed:.2f}s)")
    assert ok, name


def timed():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def test_three_choice_enumeration_and_total_mass():
    t = timed()
    trajs = list(enumerate_trajectories(load("m1"), 50))
    by_outcome = {}
    for traj in trajs:
        by_outcome.setdefault(traj.normal_form, []).append(traj.monomial)
    ok = sorted(by_outcome[0]) == [(1, 1), (1, 2), (1, 2)]
    ok = ok and sorted(by_outcome[1]) == [(0, 3), (2, 0), (2, 1)]
    for p in (F(1, 2), F(1, 3), F(7, 11), F(0), F(1)):
        mass = sum(
            eval_prob(monomial(traj.monomial), ProbAssignment([p]))
            for traj in trajs
        )
        ok = ok and mass == 1
    elapsed = t()
    _report("three-choice enumeration golden with exact unit mass", ok and elapsed < 1, elapsed)


def test_most_likely_trajectory_at_fair_coin():
    t = timed()
    rep = analyze(load("m1"), 1)
    res = solve_i1(rep, ProbAssignment([F(1, 2)]))
    ok = abs(res.value - 2 * math.log(2)) < 1e-12 and res.winners == ((2, 0),)
    _report("fair-coin most likely trajectory is the double-left run", ok, t())


def test_parameter_region_for_all_right_run():
    t = timed()
    rep = analyze(load("m1"), 1)
    res = solve_i2(rep, (0, 3))
    ok = res.cone.rows == ((F(-2), F(3)),)  # 3*~z <= 2*z
    ok = ok and i2_contains(res, ProbAssignment([F(1, 4)]))
    ok = ok and not i2_contains(res, ProbAssignment([F(1, 2)]))
    _report("all-right run dominates exactly when 3*~z <= 2*z", ok, t())


def test_minimized_powers_collapse_to_pure_monomials():
    t = timed()
    s = Poly(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    ok = True
    for k in range(2, 6):
        naive = CountPoly.unit(3)
        for _ in range(k):
            naive = naive * CountPoly.of(s)
        expected = math.comb(k + 2, 2)
        ok = ok and len(naive.coeffs) == expected
        out = vn([s] * k)
        ok = ok and out.support() == [(0, 0, k), (0, k, 0), (k, 0, 0)]
    _report("minimized k-th powers keep 3 monomials vs C(k+2,2) naive", ok, t())


def test_hull_then_dominance_on_six_point_support():
    t = timed()
    # (4,2,3) is the midpoint of v[3] and v[4]; it and (5,4,3) are dominated.
    v = [(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3), (5, 4, 3), (4, 2, 3)]
    mini = np_min(Poly(3, v))
    ok = set(mini.coeffs) == winners(v) == {(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3)}
    _report("six-point support: the lower hull drops the midpoint and (5,4,3)", ok, t())


def test_three_level_tower_reduces_to_two_runs():
    t = timed()
    program = load("m4_3")
    trajs = list(enumerate_trajectories(program, 60))
    ok = len(trajs) == 8
    rep = analyze(program, 1)
    ok = ok and rep.stable and poly_to_text(rep.poly) == "~X1^3 + X1^3"
    words = {s.monomial: "".join(str(b) for _, b in s.word) for s in rep.selected}
    ok = ok and words == {(3, 0): "000", (0, 3): "111"}
    _report("choice tower: 8 trajectories reduce to the 000/111 pair", ok, t())


def test_recursive_sampler_stabilizes_at_degree_five():
    t = timed()
    res = stabilize(load("m2"), 1, window=2)
    ok = res.stable and res.poly.degree() == 5 and len(res.poly.coeffs) == 6
    ok = ok and poly_to_text(res.poly) == (
        "~X1*~X3*~X5 + ~X1*X3*~X4 + ~X1*~X2*X3*X4*~X5"
        " + X1*~X2*~X5 + X1*~X2*X3*~X4*X5 + X1*X2*~X4"
    )
    elapsed = t()
    _report("recursive sampler stabilizes at a degree-5 six-monomial answer", ok and elapsed < 10, elapsed)


def test_loop_collapses_to_single_exit_weight():
    t = timed()
    res = stabilize(load("m3"), 1)
    ok = res.stable and len(res.rounds) <= 3
    ok = ok and res.poly.support() == [(0, 1)] and res.poly.degree() == 1
    _report("unbounded loop collapses to the single exit monomial", ok, t())


def test_minimized_product_matches_naive_oracle():
    t = timed()
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        d = rng.randint(1, 4)
        def rand_minimal():
            pts = {
                tuple(rng.randint(0, 6) for _ in range(d))
                for _ in range(rng.randint(1, 6))
            }
            pts = {p for p in pts if sum(p) <= 6} or {(0,) * d}
            return np_min(Poly(d, pts))
        s, u = rand_minimal(), rand_minimal()
        out = vn([s, u])
        naive = CountPoly.of(s) * CountPoly.of(u)
        ok = ok and set(out.coeffs) == winners(naive.coeffs)
        for _ in range(50):
            z = [F(rng.randint(0, 40), rng.randint(1, 5)) for _ in range(d)]
            ok = ok and eval_trop(out, z)[0] == eval_trop(naive, z)[0]
        if not ok:
            break
    elapsed = t()
    _report("minimized products agree with the naive oracle on 200 pairs", ok and elapsed < 60, elapsed)


def test_typing_agrees_with_enumeration_on_random_programs():
    t = timed()
    rng = random.Random(SEED)
    ok = True
    checked = 0
    while checked < 100:
        program = random_program(rng, max_nodes=12)
        trajs = list(enumerate_trajectories(program, 80))
        if any(tr.normal_form is None for tr in trajs):
            continue
        checked += 1
        res = stabilize(program, 1)
        if not res.stable:
            ok = False
            break
        dim = 2 * max(program.params, 1)
        onto = {tr.monomial for tr in trajs if tr.normal_form == 1}
        mini = (
            set(np_min(Poly(dim, onto)).coeffs) if onto else set()
        )
        ok = ok and set(res.poly.coeffs) <= onto and mini <= set(res.poly.coeffs)
        if not ok:
            break
    elapsed = t()
    _report(
        "typed supports are sound and minimally complete on 100 random programs",
        ok and elapsed < 120,
        elapsed,
    )


def test_every_reported_word_replays_to_its_monomial():
    t = timed()
    rng = random.Random(SEED)
    programs = [load(n) for n in ("m1", "m2", "m3", "m4_2", "m4_3", "m4_4", "tower2")]
    while len(programs) < 28:
        programs.append(random_program(rng, max_nodes=10))
    ok = True
    total = 0
    for program in programs:
        for target in (0, 1):
            rep = analyze(program, target)
            for sel in rep.selected:
                total += 1
                nf, mono, _ = replay_word(program, sel.word, 400)
                ok = ok and nf == target and mono == sel.monomial
        if not ok:
            break
    _report(f"all {total} reported trace words replay exactly", ok and total > 0, t())


def test_selected_cones_cover_the_weight_space():
    t = timed()
    rng = random.Random(SEED)
    programs = [load(n) for n in ("m1", "m2", "m4_3", "tower2")]
    ok = True
    for program in programs:
        rep = analyze(program, 1)
        dim = rep.poly.dim
        cones = {sel.monomial: sel.cone for sel in rep.selected}
        for _ in range(100):
            z = [F(rng.randint(0, 25), rng.randint(1, 4)) for _ in range(dim)]
            _, winners = eval_trop(rep.poly, z)
            hits = [m for m, cone in cones.items() if cone.contains(z)]
            ok = ok and bool(hits) and all(m in winners for m in hits)
        if not ok:
            break
    _report("selected cones cover weight space and certify their minima", ok, t())
