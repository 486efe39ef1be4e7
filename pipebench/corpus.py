"""Seeded synthetic inputs for the pipeline benchmark (stdlib plus numpy).

`write_inputs` builds everything one pipeline run consumes: datasets.jsonl,
papers.jsonl, a mock script and a config. The same (workload, seed) always
gives byte-identical files.

Synthetic papers are driven by eight generic mock-script entries that are
prepended to the bundled script. They match on section marker words and
copy sentences out of the prompt through {m1}..{mN} captures, so the
script's size does not grow with the corpus and the mock backend's linear
entry scan costs the same at any corpus size.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REGIONS = [
    "Arctic", "Alpine", "Andean", "Baltic", "Boreal", "Coastal", "Deltaic",
    "Equatorial", "Fennoscandian", "Himalayan", "Island", "Karst",
    "Mediterranean", "Montane", "Pampas", "Patagonian", "Prairie", "Sahelian",
    "Savanna", "Siberian", "Subarctic", "Taiga", "Tibetan", "Tundra",
]
VARIABLES = [
    "Soil Moisture", "Snow Depth", "Sea Ice Thickness", "River Discharge",
    "Groundwater Level", "Lake Temperature", "Canopy Height", "Leaf Area",
    "Aerosol Optical Depth", "Methane Flux", "Nitrate Concentration",
    "Chlorophyll", "Wind Speed", "Precipitation", "Glacier Mass Balance",
    "Thaw Depth", "Sediment Load", "Salinity", "Pollen Count",
    "Bird Abundance", "Fish Biomass", "Wildfire Area", "Dust Deposition",
    "Streamflow Chemistry",
]
KINDS = [
    "Survey", "Archive", "Record", "Composite", "Inventory", "Time Series",
    "Census", "Catalog", "Reanalysis", "Monitoring Series", "Field Campaign",
    "Station Network",
]
CADENCES = ["Hourly", "Daily", "Weekly", "Monthly", "Seasonal", "Annual"]
METHODS = [
    "automated loggers", "manual field visits", "satellite retrievals",
    "airborne lidar", "buoy arrays", "citizen observers", "tower sensors",
    "drone transects", "borehole probes", "acoustic sensors",
]
INSTRUMENTS = [
    "capacitance probes", "ultrasonic rangers", "tipping bucket gauges",
    "gas analyzers", "sonar profilers", "radiometers", "graduated rods",
    "optical spectrometers", "thermistor strings", "pressure transducers",
]
SEASONS = ["spring", "summer", "autumn", "winter", "the monsoon", "the melt season"]
FORMATS = ["NetCDF", "CSV", "GeoTIFF", "HDF5", "Parquet"]
PROCESSES = [
    "regional water budgets", "carbon uptake", "habitat suitability",
    "flood risk", "surface energy balance", "nutrient cycling",
    "species ranges", "drought severity",
]
# Words a belief-shift score entry of the bundled script keys on: datasets
# whose description carries this phrase get every generated pair rejected.
REJECT_PHRASE = "ambiguous provenance"
REJECT_SHARE = 0.1


def _pick(rng: np.random.Generator, items: list[str]) -> str:
    return items[int(rng.integers(len(items)))]


def _names(rng: np.random.Generator, n: int) -> list[tuple[str, str, str]]:
    """n distinct (region, variable, kind) triples."""
    total = len(REGIONS) * len(VARIABLES) * len(KINDS)
    if n > total:
        raise ValueError(f"at most {total} distinct synthetic datasets, asked for {n}")
    out = []
    for code in rng.choice(total, size=n, replace=False):
        code = int(code)
        region = REGIONS[code % len(REGIONS)]
        code //= len(REGIONS)
        out.append((region, VARIABLES[code % len(VARIABLES)], KINDS[code // len(VARIABLES)]))
    return out


def _description(rng: np.random.Generator, variable: str, rejected: bool) -> str:
    text = (
        f"{_pick(rng, CADENCES)} {variable} observations gathered with "
        f"{_pick(rng, METHODS)} across {int(rng.integers(3, 90))} sites. "
        f"Supports studies of {_pick(rng, PROCESSES)} in {_pick(rng, SEASONS)}."
    )
    if rejected:
        text += f" Station metadata carry {REJECT_PHRASE} notes."
    return text


def _paper(rng: np.random.Generator, pid: str, region: str, variable: str, title: str) -> dict:
    """Three unlabeled sections, each opening with a marker word the
    generic script entries key on (Overview, Procedure, Outcome)."""
    process = _pick(rng, PROCESSES)
    stations = int(rng.integers(5, 80))
    years = int(rng.integers(4, 40))
    instrument = _pick(rng, INSTRUMENTS)
    season = _pick(rng, SEASONS)
    overview = (
        f"Overview. {variable.capitalize()} across the {region} region shapes "
        f"{process} in ways that remain poorly constrained by sparse records. "
        f"Earlier campaigns sampled only a small fraction of the {region} "
        f"landscape and left multi year gaps in the {variable} record that "
        f"hamper trend detection. Models of {process} therefore disagree on "
        f"the sign of recent change in {season}. We present the {title}, an "
        f"archive of {years} years assembled to close these gaps and to give "
        f"a consistent baseline for {process} studies."
    )
    procedure = (
        f"Procedure. We measured {variable} at {stations} permanent stations "
        f"using {instrument} on a {_pick(rng, CADENCES).lower()} schedule "
        f"with {_pick(rng, METHODS)} as a cross check. Every reading was "
        f"compared against a reference transect and flagged when it departed "
        f"by more than {int(rng.integers(2, 15))} percent from neighbouring "
        f"stations. Instrument drift and restricted access during {season} "
        f"were the main obstacles to continuous coverage at remote stations."
    )
    outcome = (
        f"Outcome. The archive holds {stations * years} station years of "
        f"{variable} observations released as {_pick(rng, FORMATS)} files "
        f"with per reading quality flags. {variable.capitalize()} changed by "
        f"{int(rng.integers(2, 30))} percent per decade, with the largest "
        f"shift during {season} at the {region} stations."
    )
    return {
        "id": pid,
        "title": f"A {years} Year {title}",
        "segments": [["None", overview], ["None", procedure], ["None", outcome]],
    }


_S = r"[^.\n]+\."  # one sentence: synthetic sentences hold no inner periods

GENERIC_ENTRIES = [
    {
        "kind": "chat",
        "stage": "relevance",
        "match": r"Target Dataset Information: ([^.\n]+)\..*Paper content:\s+Overview\. ",
        "response": "USED:[Yes]\nEXPLANATION: [The paper presents and analyzes the {m1}.]",
    },
    {"kind": "chat", "stage": "segment", "match": r"Text segment:\s+Overview\. ",
     "response": "abstract&introduction"},
    {"kind": "chat", "stage": "segment", "match": r"Text segment:\s+Procedure\. ",
     "response": "method"},
    {"kind": "chat", "stage": "segment", "match": r"Text segment:\s+Outcome\. ",
     "response": "experiment"},
    {
        "kind": "chat",
        "stage": "extract",
        "match": rf"Text to analyze:\s+Overview\. ({_S} {_S} {_S}) ({_S})",
        "response": "Background: {m1}\nResearch Objective: {m2}\nMethods: None\n"
        "Challenges: None\nDataset: None\nFindings: None",
    },
    {
        "kind": "chat",
        "stage": "extract",
        "match": rf"Text to analyze:\s+Procedure\. ({_S} {_S}) ({_S})",
        "response": "Background: None\nResearch Objective: None\nMethods: {m1}\n"
        "Challenges: {m2}\nDataset: None\nFindings: None",
    },
    {
        "kind": "chat",
        "stage": "extract",
        "match": rf"Text to analyze:\s+Outcome\. ({_S}) ({_S})",
        "response": "Background: None\nResearch Objective: None\nMethods: None\n"
        "Challenges: None\nDataset: {m1}\nFindings: {m2}",
    },
    {
        "kind": "chat",
        "stage": "verify",
        "match": r"Target dataset: ([^.\n]+)\.",
        "response": "KEEP-INDICES:\n\nBackground: [1]\nResearch Objective: [1]\n"
        "Methods: [1]\nFindings: [1]\nChallenges: [1]\nDataset: [1]\n"
        "REASON: [Each section of the {m1} extraction holds one complete item.]",
    },
]


# name -> (datasets, with papers, config overrides)
WORKLOADS = {
    "meta_scale": (300, False, {"concurrency": 1}),
    "paper_rich": (24, True, {
        "concurrency": 2,
        "backend": {"cache_dir": "cache"},
        "embedding": {"enabled": True, "kind": "mock", "dim": 16},
    }),
}
# warm_cache replays paper_rich's inputs against a cache filled in set-up.
WORKLOADS["warm_cache"] = WORKLOADS["paper_rich"]


def write_inputs(workload: str, seed: int, dest: Path, bundled_script: Path) -> Path:
    """Write one workload's inputs under dest; returns the config path."""
    n, with_papers, overrides = WORKLOADS[workload]
    rng = np.random.default_rng([seed, n, int(with_papers)])
    dest.mkdir(parents=True, exist_ok=True)
    datasets, papers = [], []
    # A fixed share, so that every seed does the same amount of work.
    rejected = set(rng.choice(n, size=round(n * REJECT_SHARE), replace=False).tolist())
    for i, (region, variable, kind) in enumerate(_names(rng, n), start=1):
        title = f"{region} {variable} {kind}"
        ds = {
            "id": f"ds{i:05d}",
            "title": title,
            "description": _description(rng, variable.lower(), i - 1 in rejected),
            "topics": [region.lower(), variable.lower()],
            "linked_paper_ids": [],
        }
        if with_papers:
            pid = f"pp{i:05d}"
            ds["linked_paper_ids"] = [pid]
            papers.append(_paper(rng, pid, region, variable.lower(), title))
        datasets.append(ds)
    for name, rows in (("datasets.jsonl", datasets), ("papers.jsonl", papers)):
        (dest / name).write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
    script = GENERIC_ENTRIES + json.loads(bundled_script.read_text(encoding="utf-8"))
    (dest / "mock_script.json").write_text(json.dumps(script, indent=1), encoding="utf-8")
    config = {"backend": {"kind": "mock", "script_path": "mock_script.json"}}
    for key, value in overrides.items():
        config[key] = {**config.get(key, {}), **value} if isinstance(value, dict) else value
    path = dest / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return path
