"""Seeded corpus generator for the generated benchmark workloads.

Writes a dataset JSON, the complete offline fixture set the pipeline will
query, and (for workloads that run ``zipf``) a ``concept,count`` table. The
layout follows ``scripts/make_demo_data.py``: APA-style reference lists with
accurate, corrupted and fabricated citations, one ``works_search`` fixture
per distinct claimed title and one ``works_count`` fixture per topic. The
same seed gives byte-identical files.

Shape parameters (models, topics, catalog and fabricated-title pool sizes,
candidates per search response) are fixed per workload; the seed only
drives the random draws, so timings stay comparable across seeds.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

# The word lists, snapshot date and APA formatter are shared with the
# generator of the committed demo corpus.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from make_demo_data import (  # noqa: E402
    GIVEN, SNAPSHOT_DATE, SURNAMES, TITLE_MODS, TITLE_NOUNS, VENUES, apa,
)
from refscale.citations import (  # noqa: E402
    ParseFailure, normalize_title, parse_apa, split_reference_list,
)
from refscale.openalex import request_fingerprint  # noqa: E402

# Two or more words each, so a fabricated title never shares enough content
# words with another topic's work to clear the 0.5 overlap threshold.
TOPICS = [
    "Climate change", "Renewable energy", "Democratic elections",
    "Malaria prevention", "Microfinance loan repayment",
    "Biometric voter registration", "Urban air pollution",
    "Antibiotic resistance", "Groundwater depletion", "Coral reef bleaching",
    "Maternal health services", "Informal labour markets",
    "Crop yield forecasting", "Rural electrification",
    "Public transit ridership", "Childhood vaccination uptake",
    "Mobile money adoption", "Wildfire smoke exposure",
    "Fisheries co-management", "Land tenure reform",
    "Teacher absenteeism", "Cash transfer programmes",
    "Sanitation behaviour change", "Drought insurance schemes",
    "Pastoralist mobility corridors",
]
FAMILIES = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta"]


@dataclass(frozen=True)
class Shape:
    models: int
    topics: int
    catalog: int  # citable works per topic, in citation-rank order
    fabricated_pool: int  # distinct fabricated titles per topic
    candidates: int  # works per search response
    refusals: bool  # weakest model refuses the least-represented topic
    zipf_concepts: int = 0  # rows of the concept,count table, 0 for none


SHAPES = {
    "scale10k": Shape(models=40, topics=25, catalog=70, fabricated_pool=80,
                      candidates=14, refusals=True),
    "panel9": Shape(models=9, topics=9, catalog=40, fabricated_pool=400,
                    candidates=12, refusals=False, zipf_concepts=20_000),
}


def _log_space(lo: float, hi: float, n: int) -> List[float]:
    if n == 1:
        return [lo]
    step = (math.log10(hi) - math.log10(lo)) / (n - 1)
    return [10 ** (math.log10(lo) + i * step) for i in range(n)]


def _topics(shape: Shape):
    """(name, group, specificity, works_count), most represented first."""
    works = _log_space(1_222_665, 171, shape.topics)
    names = TOPICS[:shape.topics]
    return [(name, f"Group {i % 5}", 1 + min(3, int(4 * i / shape.topics)),
             int(round(w))) for i, (name, w) in enumerate(zip(names, works))]


def _models(shape: Shape):
    """(name, family, params_billions, recall skill), smallest first."""
    params = _log_space(0.5, 1000.0, shape.models)
    out = []
    for i, p in enumerate(params):
        p = float(f"{p:.3g}")
        skill = 0.15 + 0.8 * i / max(1, shape.models - 1)
        out.append((f"m{i:02d}-{p:g}b", FAMILIES[i % len(FAMILIES)], p, skill))
    return out


def _catalog(rng: random.Random, topics, size: int) -> Dict[str, List[dict]]:
    catalog = {}
    wid = 0
    for name, _, _, works in topics:
        entries = []
        for rank in range(size):
            wid += 1
            authors = [f"{rng.choice(SURNAMES)}, {rng.choice(GIVEN)}"
                       for _ in range(rng.randint(1, 3))]
            entries.append({
                "id": f"W{wid:07d}",
                "title": (f"{rng.choice(TITLE_MODS).capitalize()} "
                          f"{rng.choice(TITLE_NOUNS)} of {name.lower()}: "
                          f"evidence from study {wid}"),
                "authors": authors,
                "year": rng.randint(1995, 2023),
                "venue": rng.choice(VENUES),
                "doi": f"https://doi.org/10.5555/bench.{wid}",
                "cited_by_count": int(round((works ** 0.35) * 40 / (rank + 1)))
                + rng.randint(1, 5),
            })
        catalog[name] = entries
    return catalog


def _fabricated_pool(rng: random.Random, topic: str, size: int) -> List[str]:
    return [
        f"{rng.choice(SURNAMES)}, {rng.choice(GIVEN)} ({rng.randint(1990, 2024)}). "
        f"{rng.choice(TITLE_MODS).capitalize()} {rng.choice(TITLE_NOUNS)} and "
        f"{rng.choice(TITLE_NOUNS)} in {topic.lower()} systems {salt}. "
        f"{rng.choice(VENUES)}."
        for salt in range(1, size + 1)
    ]


def _generation(rng: random.Random, skill: float, works_count: int,
                works: List[dict], fabricated: List[str], duplicate: bool) -> str:
    """One cell's reference list.

    How many citations are accurate, corrupted and fabricated follows from
    the model's skill and the topic's representation alone; the seed picks
    which works and fabricated citations fill the slots and their order. So
    every seed gives the same number of analysed and of verifiable references
    per model, and run time and memory do not move with the seed.
    """
    # Recall gets harder as topic representation shrinks; strong models
    # reach further down the citation-ranked list.
    skill = min(0.98, max(0.05, skill + 0.10 * (math.log10(works_count) - 4.0)))
    distinct = 9 if duplicate else 10
    depth = max(1, int(round(skill * len(works))))
    recalled = rng.sample(works[:depth],
                          min(depth, distinct, int(round((skill + 0.2) * distinct))))
    n_accurate = min(len(recalled), int(round(skill * distinct)))
    slots = [apa(work) for work in recalled[:n_accurate]]
    for work in recalled[n_accurate:]:  # a wrong year and no identifier
        citation = apa(work, year=work["year"] + rng.choice([-2, -1, 1, 2]))
        slots.append(citation.rsplit(" https://", 1)[0])
    slots += rng.sample(fabricated, distinct - len(slots))
    rng.shuffle(slots)
    if duplicate:
        slots.append(slots[0])
    return "\n".join(["Here are the references:"]
                     + [f"{i + 1}. {s}" for i, s in enumerate(slots)])


def generate(workload: str, seed: int, out: Path) -> None:
    """Write ``dataset.json``, ``fixtures/`` and, if the shape asks for it,
    ``counts.csv`` under ``out``."""
    shape = SHAPES[workload]
    rng = random.Random(seed)
    topics = _topics(shape)
    models = _models(shape)
    catalog = _catalog(rng, topics, shape.catalog)
    fabricated = {name: _fabricated_pool(rng, name, shape.fabricated_pool)
                  for name, _, _, _ in topics}
    by_norm_title = {normalize_title(w["title"]): (topic, w)
                     for topic, entries in catalog.items() for w in entries}

    generations, labels = [], []
    for mi, (mname, _, _, skill) in enumerate(models):
        for ti, (tname, _, _, works_count) in enumerate(topics):
            if shape.refusals and mname == models[0][0] and tname == topics[-1][0]:
                generations.append({"model": mname, "topic": tname,
                                    "raw_text": "", "refusal": True})
                continue
            raw = _generation(rng, skill, works_count, catalog[tname],
                              fabricated[tname], duplicate=(mi + ti) % 5 < 2)
            generations.append({"model": mname, "topic": tname, "raw_text": raw})
            for idx, _ in enumerate(split_reference_list(raw)):
                roll = rng.random()
                label = "YES" if roll < 0.8 else ("PARTIAL" if roll < 0.95 else "NO")
                labels.append({"model": mname, "topic": tname,
                               "reference_index": idx, "label": label})

    dataset = {
        "models": [{"name": n, "family": f, "params": p, "architecture": "dense"}
                   for n, f, p, _ in models],
        "topics": [{"name": n, "group": g, "specificity_level": lvl,
                    "works_count": w} for n, g, lvl, w in topics],
        "generations": generations,
        "relevance_labels": labels,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "dataset.json").write_text(json.dumps(dataset, indent=1, sort_keys=True))

    fixtures = out / "fixtures"
    fixtures.mkdir()

    def put(endpoint: str, params: dict, body) -> None:
        fp = request_fingerprint(endpoint, params)
        (fixtures / f"{fp}.json").write_text(json.dumps(
            {"fingerprint": fp, "request": {"endpoint": endpoint, "params": params},
             "body": body, "fetched_at": SNAPSHOT_DATE},
            sort_keys=True, indent=1))

    titles = set()
    for gen in generations:
        for entry in split_reference_list(gen["raw_text"]):
            try:
                titles.add(parse_apa(entry).title)
            except ParseFailure:
                pass
    topic_names = [name for name, _, _, _ in topics]
    for title in sorted(titles):
        hit = by_norm_title.get(normalize_title(title))
        if hit:
            # The recalled work ranks first, ahead of same-topic neighbours.
            topic, work = hit
            others = [w for w in catalog[topic] if w is not work]
            results = [work] + rng.sample(others, shape.candidates - 1)
        else:
            # Fabricated: the service still answers, with other topics' works.
            topic = next(t for t in topic_names if t.lower() in title)
            pool = catalog[topic_names[(topic_names.index(topic) + 1) % len(topics)]]
            results = rng.sample(pool, shape.candidates)
        put("works_search", {"title": title}, {"results": results})
    for tname, _, _, works in topics:
        put("works_count", {"search": tname, "quoted": True}, {"count": works})

    if shape.zipf_concepts:
        rows = ["concept,count"]
        for k in range(1, shape.zipf_concepts + 1):
            count = 200_000 * k ** -1.05 * math.exp(rng.gauss(0.0, 0.3))
            rows.append(f"concept{k:05d},{max(1, int(round(count)))}")
        (out / "counts.csv").write_text("\n".join(rows) + "\n")

