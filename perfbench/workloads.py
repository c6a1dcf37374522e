"""The four seeded batch workloads and the input generators they use.

Each workload is a :class:`Workload` of three functions. ``setup(seed, work)``
generates the inputs from the seed inside the fresh directory ``work`` and
returns a state dict; it runs before the timed region. ``timed(state)`` is the
timed region: one pipeline, in this process. It returns an :class:`Outcome`
holding the score tables, labels and report the program produced, which the
worker checks after the clock stops. ``inputs(state)`` reports the input
sizes afterwards.

Every mobanom function is looked up on its module at call time
(``core.read_dataset``, never a name bound at import), so the tracer's
wrappers see the calls made from here as well as the program's own.
"""

from __future__ import annotations

import glob
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from mobanom import cli, core, evaluation, inject, simulator
from mobanom.detectors import classical, features, nets

TOP_K = (10, 25, 100)

# GeoLife-style rendering of simulated stays: one fix every FIX_INTERVAL_S,
# with JITTER_M of Gaussian noise inside stays and straight-line fixes along
# the one-tick hop between stays.
FIX_INTERVAL_S = 120
JITTER_M = 15.0
POI_RADIUS_M = 100.0
M_PER_DEG_LAT = 111_320.0
PLT_HEADER = "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n0,2,255,My Track,0,0,2,8421376\n0\n"
# Days between 1899-12-30 (the .plt day-count epoch) and 1970-01-01.
PLT_EPOCH_OFFSET_DAYS = 25569.0


@dataclass
class Outcome:
    """What the timed region produced, checked after the clock stops."""

    tables: list[evaluation.ScoreTable]
    labels: core.LabelSet
    report_rows: dict[str, dict] = field(default_factory=dict)
    report_digits: int | None = None  # decimals of AP/AUC in the report; None = full precision


# ---------------------------------------------------------------------------
# Input generators (set-up only; deterministic bytes for a given seed).
# ---------------------------------------------------------------------------


def write_imposter_dataset(sim: simulator.SimConfig, pairs: int, seed: int, data_dir: str) -> dict:
    """Simulate, inject ``pairs`` imposter pairs, write dataset and labels."""
    result = simulator.simulate(sim)
    ds, labels = inject.inject_imposter(result.dataset, inject.InjectConfig(n_outlier_pairs=pairs, seed=seed))
    os.makedirs(data_dir, exist_ok=True)
    ds_path = os.path.join(data_dir, "dataset.jsonl")
    core.write_dataset(ds, ds_path)
    core.write_labels(labels, os.path.join(data_dir, "labels.jsonl"))
    return {
        "agents": len(ds.trajectories),
        "stay_points": sum(len(t.points) for t in ds.trajectories),
        "bytes": os.path.getsize(ds_path),
    }


def agent_fixes(traj: core.Trajectory, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixes every FIX_INTERVAL_S from first arrival to last departure.

    Inside a stay a fix is the place location plus JITTER_M of noise; between
    two stays it lies on the straight line from one place to the next.
    """
    arrive = np.array([p.arrive for p in traj.points], dtype=np.int64)
    depart = np.array([p.depart for p in traj.points], dtype=np.int64)
    lat = np.array([p.location.lat for p in traj.points])
    lon = np.array([p.location.lon for p in traj.points])
    ts = np.arange(arrive[0], depart[-1] + 1, FIX_INTERVAL_S, dtype=np.int64)
    k = np.searchsorted(arrive, ts, side="right") - 1
    in_stay = ts <= depart[k]
    nxt = np.minimum(k + 1, len(arrive) - 1)
    gap = np.maximum(arrive[nxt] - depart[k], 1)
    frac = np.where(in_stay, 0.0, (ts - depart[k]) / gap)
    fix_lat = lat[k] + frac * (lat[nxt] - lat[k])
    fix_lon = lon[k] + frac * (lon[nxt] - lon[k])
    sigma_lat = JITTER_M / M_PER_DEG_LAT
    sigma_lon = sigma_lat / np.cos(np.radians(fix_lat))
    noise = rng.normal(size=(2, len(ts)))
    fix_lat = fix_lat + np.where(in_stay, noise[0] * sigma_lat, 0.0)
    fix_lon = fix_lon + np.where(in_stay, noise[1] * sigma_lon, 0.0)
    return ts, fix_lat, fix_lon


def write_plt_tree(ds: core.Dataset, seed: int, root: str) -> dict:
    """Render every trajectory as ``<root>/<agent>/Trajectory/<day>.plt`` files, one per UTC day."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 20)))
    fixes = 0
    size = 0
    for traj in ds.trajectories:
        ts, lat, lon = agent_fixes(traj, rng)
        fixes += len(ts)
        agent_dir = os.path.join(root, traj.agent_id, "Trajectory")
        os.makedirs(agent_dir, exist_ok=True)
        stamps = np.char.replace(np.datetime_as_string(ts.astype("datetime64[s]")), "T", ",")
        days = PLT_EPOCH_OFFSET_DAYS + ts / 86400.0
        rows = [f"{a:.6f},{o:.6f},0,164,{d:.10f},{s}\n"
                for a, o, d, s in zip(lat.tolist(), lon.tolist(), days.tolist(), stamps.tolist())]
        # ts is sorted, so each UTC day is one contiguous run of rows
        starts = np.flatnonzero(np.diff(ts // 86400, prepend=-1))
        for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [len(ts)]):
            name = time.strftime("%Y%m%d%H%M%S", time.gmtime(int(ts[lo]))) + ".plt"
            body = "".join(rows[lo:hi])
            path = os.path.join(agent_dir, name)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(PLT_HEADER + body)
            size += os.path.getsize(path)
    return {"raw_agents": len(ds.trajectories), "fixes": fixes, "bytes": size}


def write_poi_map(places: list[simulator.Place], path: str) -> None:
    """One POI per simulated place, in the JSONL format ``PoiMap.from_jsonl`` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for p in places:
            row = {"lat": p.location.lat, "lon": p.location.lon, "radius_m": POI_RADIUS_M,
                   "place_type": p.place_type, "place_id": p.place_id}
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


def _write_endpoint(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provider": "mock-oracle", "model_name": "mock-oracle"}, fh)


def _cli_outcome(out_dir: str) -> Outcome:
    labels = core.read_labels(os.path.join(out_dir, "inject", "labels.jsonl"))
    tables = []
    for path in sorted(glob.glob(os.path.join(out_dir, "scores", "scores_*.jsonl"))):
        with open(path, "r", encoding="utf-8") as fh:
            tables.append(evaluation.ScoreTable.from_jsonl(fh.read()))
    rows = {}
    with open(os.path.join(out_dir, "report.csv"), "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            row = dict(zip(header, line.strip().split(",")))
            rows[row["detector"]] = {
                "top_k": {str(k): int(row[f"top_{k}_hits"]) for k in TOP_K},
                "ap": None if row["ap"] == "-" else float(row["ap"]),
                "auc": None if row["auc"] == "-" else float(row["auc"]),
            }
    return Outcome(tables=tables, labels=labels, report_rows=rows, report_digits=6)


def _report_rows(report: evaluation.EvalReport) -> dict[str, dict]:
    return {
        r.detector: {"top_k": {str(k): v for k, v in r.top_k_hits.items()}, "ap": r.ap, "auc": r.auc}
        for r in report.rows
    }


def _count_points(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b'"arrive"')


# ---------------------------------------------------------------------------
# city_s: the README pipeline through the CLI, simulate -> inject -> detect -> eval.
# ---------------------------------------------------------------------------

CITY_AGENTS = 200
CITY_WEEKS = 4


def city_s_setup(seed: int, work: str) -> dict:
    endpoint = os.path.join(work, "endpoint.json")
    _write_endpoint(endpoint)
    config = os.path.join(work, "pipeline.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"""[global]
seed = {seed}
stages = simulate, inject, detect, eval

[simulate]
n_agents = {CITY_AGENTS}
weeks = {CITY_WEEKS}

[inject]
pairs = 12

[detect]
methods = ompad, monav, llm
window_days = 2

[llm]
mode = separate
endpoint = {endpoint}
cache_dir = {os.path.join(work, "llm_cache")}

[eval]
top_k = {",".join(map(str, TOP_K))}
""")
    return {"config": config, "out": os.path.join(work, "out")}


def city_s_timed(state: dict) -> Outcome:
    rc = cli.main(["--config", state["config"], "--out-dir", state["out"], "run"])
    if rc != 0:
        raise RuntimeError(f"mobanom run exited with {rc}")
    return _cli_outcome(state["out"])


def city_s_inputs(state: dict) -> dict:
    ds_path = os.path.join(state["out"], "sim", "dataset.jsonl")
    return {"agents": CITY_AGENTS, "stay_points": _count_points(ds_path), "bytes": os.path.getsize(ds_path)}


# ---------------------------------------------------------------------------
# nets: DAE and DSVDD at both scopes through the library API.
# ---------------------------------------------------------------------------


NETS_AGENTS = 50


def nets_setup(seed: int, work: str) -> dict:
    data = os.path.join(work, "data")
    sim = simulator.SimConfig(n_agents=NETS_AGENTS, weeks=4, n_hunger=0, n_social=0, n_work=0, seed=seed)
    inputs = write_imposter_dataset(sim, pairs=3, seed=seed, data_dir=data)
    return {"data": data, "inputs": inputs}


def _read_split(data: str):
    ds = core.read_dataset(os.path.join(data, "dataset.jsonl"))
    labels = core.read_labels(os.path.join(data, "labels.jsonl"))
    return ds, labels, features.SplitSpec.from_labels(ds, labels)


def nets_timed(state: dict) -> Outcome:
    ds, labels, split = _read_split(state["data"])
    feat = features.build_windows(ds, split, window_days=1.0, L=16)
    hyper = nets.NetHyper()
    tables = [
        nets.dae_score(feat, hyper, scope="population"),
        nets.dsvdd_score(feat, hyper, scope="population"),
        nets.dae_score(feat, hyper, scope="per_agent"),
        nets.dsvdd_score(feat, hyper, scope="per_agent"),
    ]
    report = evaluation.make_report(tables, labels, list(TOP_K))
    return Outcome(tables=tables, labels=labels, report_rows=_report_rows(report))


# ---------------------------------------------------------------------------
# traod_town: TRAOD (and MoNav-TT) on a small town through the library API.
# ---------------------------------------------------------------------------


# TRAOD's cost on a freshly simulated town varies about 2x from seed to seed
# (how far each support scan runs before it finds enough supporters). The
# town is therefore one fixed population, like a fixed real corpus, and the
# seed drives which agents become imposters and where their tails switch;
# that still moves the cost by about 10% through the auto radius.
TOWN_SEED = 0


def traod_town_setup(seed: int, work: str) -> dict:
    data = os.path.join(work, "data")
    sim = simulator.SimConfig(n_agents=30, weeks=2, n_hunger=0, n_social=0, n_work=0, seed=TOWN_SEED)
    inputs = write_imposter_dataset(sim, pairs=3, seed=seed, data_dir=data)
    return {"data": data, "inputs": inputs}


def traod_town_timed(state: dict) -> Outcome:
    ds, labels, split = _read_split(state["data"])
    tables = [
        classical.traod_score(ds, split, classical.TraodParams()),
        classical.monav_tt_score(ds, split, window_days=1.0),
    ]
    report = evaluation.make_report(tables, labels, list(TOP_K))
    return Outcome(tables=tables, labels=labels, report_rows=_report_rows(report))


# ---------------------------------------------------------------------------
# geolife_ingest: CLI ingest of a GeoLife-style .plt tree -> inject -> detect -> eval.
# ---------------------------------------------------------------------------

GEOLIFE_AGENTS = 20
GEOLIFE_WEEKS = 2


def geolife_ingest_setup(seed: int, work: str) -> dict:
    sim = simulator.SimConfig(n_agents=GEOLIFE_AGENTS, weeks=GEOLIFE_WEEKS, n_hunger=0, n_social=0,
                              n_work=0, seed=seed)
    tree = os.path.join(work, "geolife", "Data")
    inputs = write_plt_tree(simulator.simulate(sim).dataset, seed, tree)
    poi = os.path.join(work, "poi.jsonl")
    write_poi_map(simulator.build_map(sim).places, poi)
    endpoint = os.path.join(work, "endpoint.json")
    _write_endpoint(endpoint)
    return {"seed": seed, "tree": tree, "poi": poi, "endpoint": endpoint, "out": os.path.join(work, "out"),
            "cache": os.path.join(work, "llm_cache"), "inputs": inputs}


def geolife_ingest_timed(state: dict) -> Outcome:
    # One stage per subcommand: `run` cannot take a directory as its ingest
    # input (it hashes every stage input as a file).
    out, seed = state["out"], str(state["seed"])
    ingest_dir, inject_dir = os.path.join(out, "ingest"), os.path.join(out, "inject")
    scores_dir = os.path.join(out, "scores")
    for argv in (
        ["--out-dir", ingest_dir, "ingest", state["tree"], "--format", "plt", "--poi-map", state["poi"]],
        ["--out-dir", inject_dir, "--seed", seed, "inject", "--in", os.path.join(ingest_dir, "dataset.jsonl"),
         "--pairs", "2"],
        ["--out-dir", scores_dir, "--seed", seed, "detect", "--method", "ompad,monav,llm", "--in", inject_dir,
         "--mode", "combine_hint", "--endpoint", state["endpoint"], "--cache-dir", state["cache"],
         "--window-days", "2"],
        ["--out-dir", out, "eval", "--scores", os.path.join(scores_dir, "scores_*.jsonl"),
         "--labels", os.path.join(inject_dir, "labels.jsonl"), "--top-k", ",".join(map(str, TOP_K))],
    ):
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"mobanom {' '.join(argv)} exited with {rc}")
    return _cli_outcome(out)


def geolife_ingest_inputs(state: dict) -> dict:
    ds_path = os.path.join(state["out"], "ingest", "dataset.jsonl")
    with open(ds_path, "rb") as fh:
        agents = sum(1 for line in fh if line.strip())
    return {**state["inputs"], "agents": agents, "stay_points": _count_points(ds_path)}


def _static_inputs(state: dict) -> dict:
    return state["inputs"]


@dataclass(frozen=True)
class Workload:
    setup: object
    timed: object
    inputs: object  # state -> input sizes, called after the timed region
    records: str  # the key of ``inputs`` that counts the records the timed region processes


WORKLOADS = {
    "city_s": Workload(city_s_setup, city_s_timed, city_s_inputs, "stay_points"),
    "nets": Workload(nets_setup, nets_timed, _static_inputs, "stay_points"),
    "traod_town": Workload(traod_town_setup, traod_town_timed, _static_inputs, "stay_points"),
    "geolife_ingest": Workload(geolife_ingest_setup, geolife_ingest_timed, geolife_ingest_inputs, "fixes"),
}
