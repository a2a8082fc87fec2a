"""Seeded inputs, request schedules and expected answers for the benchmark.

Everything here is stdlib-only and independent of both ``aspectarg`` and the
test helpers, so that neither a source change nor a test edit can silently
change what a workload feeds the program.

Each workload is a fixed list of items; item ``i`` is generated from
``random.Random(f"{workload}/{i}")`` (``themes`` adds its theme count).  The
run seed orders the requests.  A fixed item list is what lets
``digests.json`` hold the expected report of every request, and it keeps the
metrics from depending on which items a seed would draw: item costs are
heavy-tailed (one witness check costs 40x another), so drawing a subset per
seed moved throughput by 15% between seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

SEMANTICS = ("grounded", "complete", "preferred", "stable", "naive")
ALL_GROUPS = "core,E,das,nwci,F"
CORPUS_NAMES = (
    "fear_appeal",
    "false_flag",
    "straw_man",
    "question_begging_opium",
    "question_begging_god",
    "contradictory_conclusion",
)


@dataclass(frozen=True)
class Request:
    """One timed request: a fixed chain of ``cli.run`` calls.

    ``key`` names the request in ``digests.json``; ``expect`` selects the
    answer check beyond the digest (see ``verify.py``); ``model`` is the file
    whose violations ``recheck`` re-verifies.
    """

    key: str
    steps: tuple[tuple[str, ...], ...]
    expect: str
    model: str


@dataclass(frozen=True)
class Plan:
    """What one seed of one workload runs: input files and a request order."""

    files: dict[str, bytes]
    requests: tuple[Request, ...]

    def fingerprint(self) -> bytes:
        """Bytes that identify the inputs: every file and the schedule."""
        parts = [name.encode() + b"\0" + data for name, data in sorted(self.files.items())]
        parts += [repr((r.key, r.steps)).encode() for r in self.requests]
        return b"\1".join(parts)


def _dump(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode()


# ---------------------------------------------------------------------------
# Formulas with their truth tables, so the generators can avoid 0 and 1
# without evaluating anything through the program under test.
# ---------------------------------------------------------------------------


def _atom_masks(props: tuple[str, ...]) -> dict[str, int]:
    rows = 1 << len(props)
    return {
        name: sum(1 << m for m in range(rows) if (m >> i) & 1) for i, name in enumerate(props)
    }


def _formula(rng: random.Random, props: tuple[str, ...], depth: int) -> tuple[str, int]:
    """A random formula over ``props`` and its truth table as a bitmask."""
    full = (1 << (1 << len(props))) - 1
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(props)
        return name, _atom_masks(props)[name]
    op = rng.choice(("~", "&", "|", "->", "<->"))
    left, lm = _formula(rng, props, depth - 1)
    if op == "~":
        return f"~({left})", full ^ lm
    right, rm = _formula(rng, props, depth - 1)
    mask = {
        "&": lm & rm,
        "|": lm | rm,
        "->": (full ^ lm) | rm,
        "<->": full ^ (lm ^ rm),
    }[op]
    return f"({left}) {op} ({right})", mask


def _proper_formula(rng: random.Random, props: tuple[str, ...], must_hold: int = 0) -> str:
    """A formula that is neither 0 nor 1 and holds on every row of ``must_hold``."""
    full = (1 << (1 << len(props))) - 1
    while True:
        text, mask = _formula(rng, props, 2)
        if mask not in (0, full) and mask & must_hold == must_hold:
            return text


def _subset(rng: random.Random, pool: list[str], low: int, high: int) -> list[str]:
    return sorted(rng.sample(pool, rng.randint(low, min(high, len(pool)))))


def _theme_subsets(themes: list[str]) -> list[tuple[str, ...]]:
    return [c for n in range(1, len(themes) + 1) for c in combinations(themes, n)]


# ---------------------------------------------------------------------------
# themes: models that grow in themes over a 3-proposition algebra.
# ---------------------------------------------------------------------------

PROPS3 = ("p", "q", "r")


def random_total_doc(rng: random.Random, m: int, n: int) -> dict:
    """A well-formed model whose every statement has aspects at each of its
    themes; theme rows are mostly the full carrier."""
    themes = [f"t{j + 1}" for j in range(m)]
    n_ord = max(2, round(n * 0.7))
    statements: list[dict] = []
    typing: dict[str, list[str]] = {}
    for i in range(n_ord):
        sid = f"a{i + 1}"
        typing[sid] = _subset(rng, themes, 1, 2)
        statements.append({"id": sid, "kind": "ordinary", "themes": typing[sid]})
    ordinaries = [s["id"] for s in statements]
    refs: set[tuple[str, str]] = set()
    supports: dict[str, list[str]] = {sid: typing[sid] for sid in ordinaries}
    while len(statements) < n:
        sid = f"p{len(statements) - n_ord + 1}"
        if rng.random() < 0.7:
            target = rng.choice(ordinaries)
            ref = rng.choice(typing[target])
            if (ref, target) in refs:
                continue
            own = _subset(rng, typing[target], 1, 2)
            supports[sid] = sorted(set(own) | {ref})
        else:
            target = "@summary"
            ref = rng.choice(sorted({t for sid2 in ordinaries for t in typing[sid2]}))
            if (ref, target) in refs:
                continue
            own = _subset(rng, themes, 1, 2)
            supports[sid] = own
        refs.add((ref, target))
        typing[sid] = own
        statements.append(
            {"id": sid, "kind": "pointer", "theme": ref, "target": target, "themes": own}
        )
    ids = [s["id"] for s in statements]

    relations = []
    for _ in range(n):
        src, dst = rng.sample(ids, 2)
        pool = sorted(set(typing[src]) | set(typing[dst]))
        types = rng.choices((["attack"], ["support"], ["attack", "support"]), (45, 45, 10))[0]
        relations.append(
            {"from": src, "to": dst, "types": types, "themes": _subset(rng, pool, 1, 2)}
        )

    statement_rows = [
        {
            "themes": [t],
            "statement": sid,
            "aspects": [_proper_formula(rng, PROPS3) for _ in range(rng.randint(1, 2))],
        }
        for sid in ids
        for t in supports[sid]
    ]
    if rng.random() < 0.75:
        theme_rows = [{"themes": list(ts), "aspects": "ALL"} for ts in _theme_subsets(themes)]
    else:
        f = _proper_formula(rng, PROPS3)
        small = ["0", "1", f, f"~({f})"]
        theme_rows = [
            {"themes": list(ts), "aspects": "ALL" if rng.random() < 0.5 else small}
            for ts in _theme_subsets(themes)
        ]
    return {
        "themes": themes,
        "props": list(PROPS3),
        "statements": statements,
        "relations": relations,
        "interpretation": {
            "default": "union",
            "theme_aspects": theme_rows,
            "statement_aspects": statement_rows,
        },
    }


BLOCK_THEMES = 3


def block_doc(rng: random.Random, m: int, n: int) -> dict:
    """A model that satisfies Core and the exact-region constraints (E) by
    construction.

    Themes ``t1..t3`` each own one proposition (a *block*); the remaining
    themes own none and carry no aspects.  A statement's row at an owning
    theme is that theme's proposition or its complement; theme rows are the
    subalgebras generated by the blocks of the set's owning themes.  Support
    edges join statements with equal rows, attack edges statements with
    complementary rows, so every relation constraint in Core holds.
    """
    themes = [f"t{j + 1}" for j in range(m)]
    owning = themes[:BLOCK_THEMES]
    prop_of = {t: f"w{j + 1}" for j, t in enumerate(owning)}
    literal: dict[tuple[str, str], bool] = {}  # (statement, theme) -> positive?

    def lit(sid: str, t: str) -> str:
        return prop_of[t] if literal[(sid, t)] else f"~{prop_of[t]}"

    n_ord = max(2, round(n * 0.8))
    statements: list[dict] = []
    typing: dict[str, list[str]] = {}
    for i in range(n_ord):
        sid = f"a{i + 1}"
        own = sorted({rng.choice(owning)} | set(_subset(rng, themes, 0, 1)))
        typing[sid] = own
        statements.append({"id": sid, "kind": "ordinary", "themes": own})
        for t in own:
            if t in prop_of:
                literal[(sid, t)] = rng.random() < 0.5
    ordinaries = [s["id"] for s in statements]
    rows: dict[str, dict[str, str]] = {
        sid: {t: lit(sid, t) for t in typing[sid] if t in prop_of} for sid in ordinaries
    }

    relations = []
    for _ in range(n_ord):
        src, dst = rng.sample(ordinaries, 2)
        shared = sorted(set(rows[src]) & set(rows[dst]))
        if not shared:
            continue
        rel_themes = _subset(rng, shared, 1, 2)
        agree = [rows[src][t] == rows[dst][t] for t in rel_themes]
        if all(agree):
            relations.append({"from": src, "to": dst, "types": ["support"], "themes": rel_themes})
        elif not any(agree):
            relations.append({"from": src, "to": dst, "types": ["attack"], "themes": rel_themes})

    refs: set[tuple[str, str]] = set()
    summary_rows: dict[str, dict[str, str]] = {}
    attempts = 0
    while len(statements) < n and attempts < 10 * n:
        attempts += 1
        sid = f"p{len(statements) - n_ord + 1}"
        target = rng.choice(ordinaries)
        if rng.random() < 0.75:
            ref = rng.choice(typing[target])
            if (ref, target) in refs:
                continue
            own = _subset(rng, typing[target], 1, 2)
            # a statement pointer repeats its target at every theme it covers
            rows[sid] = {t: rows[target][t] for t in sorted(set(own) | {ref}) if t in prop_of}
        else:
            ref = rng.choice(sorted({t for o in ordinaries for t in typing[o]}))
            target = "@summary"
            if (ref, target) in refs:
                continue
            own = _subset(rng, themes, 1, 2)
            rows[sid] = {}
            for t in sorted(set(own) | {ref}):
                if t in prop_of:
                    rows[sid][t] = prop_of[t] if rng.random() < 0.5 else f"~{prop_of[t]}"
            summary_rows[sid] = rows[sid]
        refs.add((ref, target))
        typing[sid] = own
        statements.append(
            {"id": sid, "kind": "pointer", "theme": ref, "target": target, "themes": own}
        )

    statement_rows = [
        {"themes": [t], "statement": sid, "aspects": [aspect]}
        for sid, by_theme in rows.items()
        for t, aspect in sorted(by_theme.items())
    ]
    # summary pointers never take the union default: spell the unions out
    for sid, by_theme in summary_rows.items():
        for ts in _theme_subsets(themes):
            chosen = [by_theme[t] for t in ts if t in by_theme]
            if len(ts) > 1 and chosen:
                statement_rows.append({"themes": list(ts), "statement": sid, "aspects": chosen})

    theme_rows = []
    for ts in _theme_subsets(themes):
        blocks = [prop_of[t] for t in ts if t in prop_of]
        if not blocks:
            continue
        if len(blocks) == BLOCK_THEMES:
            theme_rows.append({"themes": list(ts), "aspects": "ALL"})
        else:
            theme_rows.append({"themes": list(ts), "aspects": _generated_subalgebra(blocks)})
    return {
        "themes": themes,
        "props": [prop_of[t] for t in owning],
        "statements": statements,
        "relations": relations,
        "interpretation": {
            "default": "union",
            "theme_aspects": theme_rows,
            "statement_aspects": statement_rows,
        },
    }


def _generated_subalgebra(props: list[str]) -> list[str]:
    """Every element of the subalgebra generated by ``props``, as formulas:
    one disjunction of cylinders per set of cylinders (``0`` for none)."""
    cylinders = []
    for pattern in range(1 << len(props)):
        lits = [p if (pattern >> i) & 1 else f"~{p}" for i, p in enumerate(props)]
        cylinders.append("(" + " & ".join(lits) + ")")
    out = []
    for bits in range(1 << len(cylinders)):
        chosen = [c for i, c in enumerate(cylinders) if (bits >> i) & 1]
        out.append(" | ".join(chosen) if chosen else "0")
    return out


# ---------------------------------------------------------------------------
# extensions: attack graphs whose theme sub-models have 12-16 statements.
# ---------------------------------------------------------------------------


def extensions_doc(rng: random.Random, m: int, planted: bool) -> tuple[dict, list[str]]:
    """An attack graph with ``m`` themes and 12-16 statements.

    Unless ``planted``, every aspect holds at the row ``p & q & r``, so no
    meet is ever 0 and the logical-fallacy scan visits every theme set.  A
    planted graph adds two unattacked statements with complementary aspects
    to one theme, so the scan stops with a 0-conclusion at that theme.
    Returns the document and its themes.
    """
    themes = [f"t{j + 1}" for j in range(m)]
    n = rng.randint(12, 16)
    ids = [f"s{i + 1}" for i in range(n)]
    n_free = 2 if planted else 0
    typing = {sid: _subset(rng, themes, 1, 2) for sid in ids[: n - n_free]}
    anchor = 1 << ((1 << len(PROPS3)) - 1)  # the row where p, q and r all hold
    rows = {sid: [_proper_formula(rng, PROPS3, anchor)] for sid in typing}
    if planted:
        theme = rng.choice(themes)
        f = _proper_formula(rng, PROPS3)
        for sid, aspect in zip(ids[n - 2 :], (f, f"~({f})")):
            typing[sid] = [theme]
            rows[sid] = [aspect]
    relations = []
    attackable = ids[: n - n_free]
    for src in attackable:
        for dst in rng.sample(attackable, rng.randint(1, 3)):
            shared = sorted(set(typing[src]) & set(typing[dst]))
            if dst == src or not shared:
                continue
            types = ["support"] if rng.random() < 0.15 else ["attack"]
            relations.append({"from": src, "to": dst, "types": types, "themes": shared})
    doc = {
        "themes": themes,
        "props": list(PROPS3),
        "statements": [{"id": sid, "kind": "ordinary", "themes": typing[sid]} for sid in ids],
        "relations": relations,
        "interpretation": {
            "default": "union",
            "theme_aspects": [{"themes": list(ts), "aspects": "ALL"} for ts in _theme_subsets(themes)],
            "statement_aspects": [
                {"themes": [t], "statement": sid, "aspects": rows[sid]}
                for sid in ids
                for t in typing[sid]
            ],
        },
    }
    return doc, themes


# ---------------------------------------------------------------------------
# witness: bare graphs whose Core witness needs 16 propositions.
# ---------------------------------------------------------------------------


def witness_graph(rng: random.Random) -> dict:
    """A bare two-theme graph with two ordinary statements and 1-4 pointers.

    It passes tr, nsa, nnp and kos, and every relation theme is
    interpretable at both endpoints, so synthesis succeeds.  Synthesis needs
    ``m * (n + n*m + m)`` propositions for ``m`` themes and ``n`` ordinary
    statements: 16 here.  Larger chains make the F group refuse the witness
    (its minimal-representation cap is 16 aspects), and 15-aspect chains
    already take seconds per check.  Supporting both ends of an attack is
    allowed: only the graphic ``nss`` check reports it.
    """
    themes = ["t1", "t2"]
    typing = {sid: _subset(rng, themes, 1, 2) for sid in ("a1", "a2")}
    ordinaries = list(typing)
    statements = [{"id": sid, "kind": "ordinary", "themes": typing[sid]} for sid in ordinaries]
    support_of: dict[str, set[str]] = {sid: set(typing[sid]) for sid in ordinaries}
    refs: set[tuple[str, str]] = set()
    wanted = rng.randint(1, 4)
    for _ in range(20):  # a graph typed with one theme has room for three pointers
        if len(statements) == 2 + wanted:
            break
        sid = f"p{len(statements) - 1}"
        if rng.random() < 0.6:
            target = rng.choice(ordinaries)
            ref = rng.choice(typing[target])
            own = _subset(rng, typing[target], 1, 2)
            reach = (set(own) | {ref}) & set(typing[target])
        else:
            inhabited = sorted({t for o in ordinaries for t in typing[o]})
            ref, target = rng.choice(inhabited), "@summary"
            own = _subset(rng, themes, 1, 2)
            reach = set(own) | {ref}
        if (ref, target) in refs:
            continue
        refs.add((ref, target))
        typing[sid], support_of[sid] = own, reach
        statements.append(
            {"id": sid, "kind": "pointer", "theme": ref, "target": target, "themes": own}
        )
    ids = [s["id"] for s in statements]
    relations = []
    for _ in range(len(ids)):
        src, dst = rng.sample(ids, 2)
        shared = set(typing[src]) & set(typing[dst])
        pool = support_of[src] & support_of[dst] & (set(typing[src]) | set(typing[dst]))
        if not shared & pool:
            continue
        base = rng.choice(sorted(shared & pool))
        rel_themes = sorted({base} | set(_subset(rng, sorted(pool), 0, 2)))
        types = rng.choices((["attack"], ["support"], ["attack", "support"]), (45, 45, 10))[0]
        relations.append({"from": src, "to": dst, "types": types, "themes": rel_themes})
    return {"themes": themes, "props": ["unused"], "statements": statements, "relations": relations}


# ---------------------------------------------------------------------------
# Workloads: items, their requests and the per-seed schedule.
# ---------------------------------------------------------------------------


def _corpus_item(corpus_dir: Path) -> tuple[dict[str, bytes], list[Request]]:
    files = {f"{name}.json": (corpus_dir / f"{name}.json").read_bytes() for name in CORPUS_NAMES}
    extras = ("E", "das", "nwci", "F")
    alphas = [",".join(("core",) + c) for n in range(5) for c in combinations(extras, n)]
    requests = []
    for name in CORPUS_NAMES:
        path = f"{name}.json"

        def add(suffix: str, *argv: str) -> None:
            requests.append(Request(f"corpus/{name}/{suffix}", (argv,), "corpus", path))

        add("validate", "validate", path)
        add("classify", "classify-relations", path, "--format", "machine")
        for alpha in alphas:
            for fmt in ("human", "machine"):
                add(f"check/{alpha}/{fmt}", "check", path, "--alpha", alpha, "--format", fmt)
        for sem in SEMANTICS:
            add(f"scan/{sem}", "conclude", path, "--scan-logical", "--semantics", sem,
                "--format", "machine")
    return files, requests


#: themes items: (themes m, statement range, items); every fourth item is a
#: Core+E-normal block instance.
THEMES_ITEMS = ((4, (18, 25), 4), (5, (14, 18), 4), (6, (8, 10), 2))


def _themes_item(item: tuple[int, int]) -> tuple[dict[str, bytes], list[Request]]:
    m, index = item
    (n_range,) = [n for mm, n, _ in THEMES_ITEMS if mm == m]
    rng = random.Random(f"themes/{m}/{index}")
    n = rng.randint(*n_range)
    if index % 4 == 3:
        doc, expect = block_doc(rng, m, n), "block"
    else:
        doc, expect = random_total_doc(rng, m, n), "digest"
    path = f"m{m}_{index}.json"
    step = ("check", path, "--alpha", ALL_GROUPS, "--format", "machine")
    return {path: _dump(doc)}, [Request(f"themes/{m}/{index}", (step,), expect, path)]


#: One graph per theme count (1-3) and kind (consistent, planted).
EXTENSIONS_ITEMS = 6


def _extensions_item(index: int) -> tuple[dict[str, bytes], list[Request]]:
    rng = random.Random(f"extensions/{index}")
    expect = "planted" if index % 2 else "consistent"
    doc, themes = extensions_doc(rng, 1 + index % 3, expect == "planted")
    themes_arg = ",".join(_subset(rng, themes, 1, len(themes)))
    path = f"g{index}.json"
    requests = [
        Request(
            f"extensions/{index}/scan/{sem}",
            (("conclude", path, "--scan-logical", "--semantics", sem, "--format", "machine"),),
            expect,
            path,
        )
        for sem in SEMANTICS
    ]
    step = ("conclude", path, "--themes", themes_arg, "--semantics", rng.choice(SEMANTICS),
            "--format", "machine")
    requests.append(Request(f"extensions/{index}/themes", (step,), "digest", path))
    return {path: _dump(doc)}, requests


WITNESS_ITEMS = 10


def _witness_item(index: int) -> tuple[dict[str, bytes], list[Request]]:
    path, out = f"graph{index}.json", f"witness{index}.json"
    steps = (
        ("validate", path),
        ("synthesize", path, "-o", out),
        ("check", out, "--alpha", ALL_GROUPS, "--format", "machine"),
    )
    doc = witness_graph(random.Random(f"witness/{index}"))
    return {path: _dump(doc)}, [Request(f"witness/{index}", steps, "witness", out)]


WORKLOADS = ("corpus", "themes", "extensions", "witness")

#: Least number of passes over the schedule per timed run.  The tail
#: percentile is fixed per workload by this count (see ``worker.tail_percentile``),
#: so it does not change with the machine's speed.
NOMINAL_PASSES = {"corpus": 10, "themes": 4, "extensions": 6, "witness": 4}


def _items(workload: str, root: Path) -> tuple[dict[str, bytes], list[Request]]:
    if workload == "corpus":
        return _corpus_item(root / "src" / "aspectarg" / "corpus")
    if workload == "themes":
        items = [_themes_item((m, i)) for m, _, count in THEMES_ITEMS for i in range(count)]
    elif workload == "extensions":
        items = [_extensions_item(i) for i in range(EXTENSIONS_ITEMS)]
    elif workload == "witness":
        items = [_witness_item(i) for i in range(WITNESS_ITEMS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files: dict[str, bytes] = {}
    requests: list[Request] = []
    for more_files, more_requests in items:
        files.update(more_files)
        requests += more_requests
    return files, requests


def plan(workload: str, seed: int, root: Path) -> Plan:
    """The inputs and request order of one seed; the same seed gives the same plan."""
    files, requests = _items(workload, root)
    random.Random(seed).shuffle(requests)
    return Plan(files, tuple(requests))
