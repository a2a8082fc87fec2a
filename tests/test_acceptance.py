"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints one ``ACCEPTANCE n ...: PASS`` line (visible with ``-s`` or
``-rP``); a failed criterion fails its test.  Run with::

    pytest tests/test_acceptance.py -v
"""

import io
import json
import random
import time
from itertools import combinations

from aspectarg.algebra import mk_algebra
from aspectarg.cli import run
from aspectarg.constraints import (
    ALPHA_GROUPS,
    CORE,
    all_violations,
    check_core,
    check_exact_region,
    check_graphic,
    classify_normal_form,
)
from aspectarg.corpus import corpus_path
from aspectarg.model import effective_aspect, lookup
from aspectarg.modelfile import load_path
from aspectarg.semantics import (
    SEMANTICS_IDS,
    detect_logical_fallacy,
    extensions,
    logico_rhetorical_conclusion,
    sub_model,
)
from aspectarg.statements_sets import statements_sets
from aspectarg.synthesis import synthesize_core_witness
from helpers import (
    atoms,
    block_instance,
    eta,
    join_irreducibles,
    oracle_depth_sets,
    oracle_dung,
    oracle_width_sets,
    random_graphic_safe_model,
    random_model_any,
    random_total_interpretation,
    truth_table_element,
)
from test_semantics import attack_model
from test_statements_sets import members_of, random_graph, remark_graph


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.monotonic()
    code = run(list(argv), out=out, err=err)
    elapsed = time.monotonic() - started
    return code, out.getvalue(), err.getvalue(), elapsed


def report(line):
    print(line)


def check_machine(name, alpha):
    code, out, err, elapsed = invoke(
        "check", str(corpus_path(name)), "--alpha", alpha, "--format", "machine"
    )
    assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
    return code, json.loads(out)


def test_criterion_01_corpus_verdicts_match_the_paper():
    # fear appeal: a core fallacy via the inclusion constraint at ({t2}, s2)
    code, rep = check_machine("fear_appeal", "core")
    assert code == 1
    assert rep["graphic"] == {}
    assert list(rep["semantic"]["core"]) == ["i"]
    (violation,) = rep["semantic"]["core"]["i"]
    assert violation["statements"] == ["s2"] and violation["theme_set"] == ["t2"]

    # false flag: fails the no-null-pointer check, hence no Core witness exists
    code, rep = check_machine("false_flag", "core")
    assert code == 1
    assert list(rep["graphic"]) == ["nnp"]
    (violation,) = rep["graphic"]["nnp"]
    assert violation["statements"] == ["s1"]
    assert rep["semantic"]["core"] == {}
    synth_code, _, synth_err, elapsed = invoke("synthesize", str(corpus_path("false_flag")))
    assert elapsed < 1.0
    assert synth_code == 2 and "nnp" in synth_err

    # straw man: core-normal, a {core, das} fallacy
    code, rep = check_machine("straw_man", "core")
    assert code == 0 and rep["normal"]
    code, rep = check_machine("straw_man", "core,das")
    assert code == 1
    assert {v["relation"][0] for v in rep["semantic"]["das"]["das"]} == {"s2"}
    assert rep["semantic"]["core"] == {}

    # question begging, both variants: core-normal, {core, F} fallacies
    for name in ("question_begging_opium", "question_begging_god"):
        code, rep = check_machine(name, "core")
        assert code == 0 and rep["normal"]
        code, rep = check_machine(name, "core,F")
        assert code == 1
        fad = rep["semantic"]["F"]["faD"]
        assert any(set(v["statements"]) >= {"s1", "s2"} for v in fad)
    report("ACCEPTANCE 1 (corpus verdicts reproduce the worked examples): PASS")


def test_criterion_02_straw_man_strict_ordering():
    doc = load_path(corpus_path("straw_man"))
    eff = {
        sid: effective_aspect(doc.interpretation, doc.model, ["t"], sid)
        for sid in ("s1", "s2", "s3")
    }
    assert eff["s2"] < eff["s3"] < eff["s1"]
    report("ACCEPTANCE 2 (straw-man effective aspects strictly ordered): PASS")


def test_criterion_03_witness_synthesis_on_random_graphs():
    rng = random.Random(101)
    started = time.monotonic()
    produced = 0
    while produced < 100:
        model = random_graphic_safe_model(
            rng, max_themes=2, max_ordinary=2, max_pointers=2, max_relations=3
        )
        graphic = check_graphic(model)
        assert not any(graphic[c] for c in ("tr", "nsa", "nnp", "kos"))
        witness = synthesize_core_witness(model)
        leftover = all_violations(check_core(model, witness))
        assert not leftover, leftover
        produced += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(
        f"ACCEPTANCE 3 (constructive witness on {produced} random graphs, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_04_core_satisfaction_forward_direction():
    rng = random.Random(102)
    algebra = mk_algebra(["p", "q"])
    pairs = 0
    core_passes = 0
    while pairs < 500:
        if pairs % 5 == 4:
            model = random_graphic_safe_model(rng)
            interp = synthesize_core_witness(model)
        else:
            model = random_model_any(rng)
            interp = random_total_interpretation(rng, model, algebra)
        pairs += 1
        if all_violations(check_core(model, interp)):
            continue
        core_passes += 1
        graphic = check_graphic(model)
        failed = [c for c in ("tr", "nsa", "nnp", "kos") if graphic[c]]
        assert not failed, (failed, model)
    assert core_passes >= 50, "implication test would be vacuous"
    report(
        f"ACCEPTANCE 4 (forward direction on {pairs} pairs, "
        f"{core_passes} non-vacuous): PASS"
    )


def test_criterion_05_distribution_under_core_and_exact_region():
    rng = random.Random(103)
    instances = 0
    while instances < 200:
        model, interp = block_instance(rng)
        assert not all_violations(check_core(model, interp))
        assert not all_violations(check_exact_region(model, interp))
        subsets = [
            frozenset(c)
            for n in range(len(model.themes) + 1)
            for c in combinations(model.themes, n)
        ]
        for t1 in subsets:
            for t2 in subsets:
                for s in model.statements:
                    left = lookup(interp, model, t1, s.id)
                    right = lookup(interp, model, t2, s.id)
                    assert lookup(interp, model, t1 | t2, s.id) == left.union(right)
                    assert lookup(interp, model, t1 & t2, s.id) == left.intersection(right)
        instances += 1
    report(f"ACCEPTANCE 5 (distribution laws on {instances} Core+E instances): PASS")


def test_criterion_06_join_irreducibles_and_isomorphism():
    started = time.monotonic()
    for k in (1, 2, 3):
        algebra = mk_algebra([f"p{i}" for i in range(k)])
        all_atoms = atoms(algebra)
        assert join_irreducibles(algebra) == all_atoms
        assert len(all_atoms) == 1 << k
        carrier = list(algebra.elements())
        image = {e: eta(e) for e in carrier}
        assert len(set(image.values())) == len(carrier) == 1 << (1 << k)
        for e in carrier:
            assert image[~e] == all_atoms - image[e]
        for e1 in carrier:
            for e2 in carrier:
                assert image[e1 & e2] == image[e1] & image[e2]
                assert image[e1 | e2] == image[e1] | image[e2]
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(f"ACCEPTANCE 6 (join-irreducibles/atoms and eta laws, {elapsed:.1f}s): PASS")


def test_criterion_07_statements_sets_oracle_equivalence():
    # the reconstructed fan-in/chain graph reproduces all four listed outputs
    model = remark_graph()
    widths, depths = statements_sets(model, "s6", "t2", "attack")
    assert members_of(widths) == [["s4", "s6"]]
    assert members_of(depths) == [["s1", "s4", "s6"]]
    widths, depths = statements_sets(model, "s6", "t1", "support")
    assert members_of(widths) == [["s3", "s5", "s6"]]
    assert members_of(depths) == [["s2", "s5", "s6"], ["s3", "s6"]]

    rng = random.Random(104)
    samples = 0
    while samples < 300:
        graph = random_graph(rng, max_nodes=7)
        sid = rng.choice([s.id for s in graph.statements])
        theme = rng.choice(sorted(graph.themes_of(sid)))
        rel = rng.choice(["attack", "support"])
        widths, depths = statements_sets(graph, sid, theme, rel)
        assert members_of(widths) == sorted(
            sorted(m) for m in oracle_width_sets(graph, sid, theme, rel)
        )
        assert members_of(depths) == sorted(
            sorted(m) for m in oracle_depth_sets(graph, sid, theme, rel)
        )
        samples += 1
    report(f"ACCEPTANCE 7 (statements-sets vs brute force, {samples} samples): PASS")


def test_criterion_08_acceptability_semantics_oracle():
    rng = random.Random(105)
    samples = 0
    while samples < 250:
        n = rng.randint(1, 8)
        args = frozenset(f"s{j}" for j in range(n))
        attacks = frozenset((a, b) for a in args for b in args if rng.random() < 0.25)
        sub = sub_model(attack_model(args, attacks), ["t"])
        oracle = oracle_dung(args, attacks)
        for semantics in SEMANTICS_IDS:
            assert extensions(sub, semantics) == oracle[semantics]
        samples += 1
    report(f"ACCEPTANCE 8 (Dung semantics vs brute force, {samples} graphs): PASS")


def test_criterion_09_normal_form_monotonicity():
    rng = random.Random(106)
    algebra = mk_algebra(["p", "q"])
    cases = []
    for name in (
        "fear_appeal",
        "false_flag",
        "straw_man",
        "question_begging_opium",
        "question_begging_god",
        "contradictory_conclusion",
    ):
        doc = load_path(corpus_path(name))
        cases.append((doc.model, doc.interpretation))
    for _ in range(20):
        model = random_model_any(rng)
        cases.append((model, random_total_interpretation(rng, model, algebra)))
    for _ in range(10):
        cases.append(block_instance(rng))

    extras = [g for g in ALPHA_GROUPS if g != CORE]
    alphas = [
        frozenset({CORE, *combo})
        for n in range(len(extras) + 1)
        for combo in combinations(extras, n)
    ]
    checked = 0
    for model, interp in cases:
        verdicts = {alpha: classify_normal_form(model, interp, alpha).normal for alpha in alphas}
        for alpha in alphas:
            for beta in alphas:
                if alpha <= beta and verdicts[beta]:
                    checked += 1
                    assert verdicts[alpha], (alpha, beta)
    assert checked > 0
    report(f"ACCEPTANCE 9 (normal-form monotonicity, {len(cases)} models): PASS")


def test_criterion_10_logical_fallacy_detection():
    doc = load_path(corpus_path("contradictory_conclusion"))
    verdict = detect_logical_fallacy(doc.model, doc.interpretation, "grounded")
    assert verdict.found and verdict.witness == frozenset({"t"})
    assert verdict.conclusion.is_bottom
    code, _, _, _ = invoke(
        "conclude", str(corpus_path("contradictory_conclusion")), "--scan-logical"
    )
    assert code == 1

    fear = load_path(corpus_path("fear_appeal"))
    conclusion = logico_rhetorical_conclusion(
        fear.model, fear.interpretation, ["t1"], "grounded"
    )
    from aspectarg.formulas import parse

    expected = truth_table_element(parse("aP & (~bP & bCostH)"), fear.interpretation.algebra)
    assert conclusion == expected
    assert not conclusion.is_bottom
    assert not detect_logical_fallacy(fear.model, fear.interpretation, "grounded").found
    report("ACCEPTANCE 10 (logical fallacy detection and non-detection): PASS")
