"""Command-line entry point.

Subcommands: ``run`` (one episode), ``bench`` (a dataset), ``replay``
(verify a trace), ``synth`` (generate a world plus benchmark). Exit codes
are a stable contract: 0 success, 2 config or input error, 3 exhausted
episode, 4 replay mismatch.

All outputs land under the ``--out`` directory with fixed names, so runs
can be scripted without guessing paths:

    run:    prediction.json, run.trace.jsonl
    bench:  report.json, report.txt, predictions.jsonl, traces/<id>.trace.jsonl
    synth:  world.json, synthetic.bench.jsonl

``run`` and ``bench`` record every episode with ``engine.record_episode``
over the live endpoints or one synthetic toolbox holding the command's
scenes: ``--descriptor`` under ``--image`` (default ``scene/0``), or each
descriptor sample under ``scene/<id>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .canonical import canonical_json, parse_json
from .config import BACKEND_LLM, TOOLS_SYNTHETIC, RunConfig, build_backend, load_config
from .engine import record_episode, replay
from .errors import ConfigError, GeoprobeError, HashMismatchError, TraceFormatError
from .executor import load_tag_table
from .geo import load_gazetteer
from .live_tools import HttpTransport, live_adapters
from .recorder import load_trace
from .state import EpisodeStatus
from .synthworld import (
    Difficulty,
    SceneDescriptor,
    SyntheticToolbox,
    generate_world,
    load_world,
    save_world,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXHAUSTED = 3
EXIT_MISMATCH = 4


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _out_dir(args, cfg: RunConfig | None = None) -> Path:
    out = args.out if args.out else (cfg.out_dir if cfg else "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_descriptor(path: str) -> SceneDescriptor:
    try:
        return SceneDescriptor.from_json(parse_json(Path(path).read_text(encoding="utf-8")))
    except OSError as exc:
        raise ConfigError(f"cannot read descriptor: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad descriptor file {path}: {exc}")


@contextmanager
def _tools(cfg: RunConfig, scenes: dict[str, SceneDescriptor]):
    """``(backend, gazetteer, tag_table, adapters)`` for the config: the
    adapters of one toolbox over the world holding ``scenes`` (image ref to
    descriptor), or of the live endpoints. The backend and adapters share
    one ``HttpTransport`` over every URL the run calls, built (so each URL
    checked) before the world or gazetteer loads and closed with the block;
    a run with no URL builds none."""
    live = cfg.tools.mode != TOOLS_SYNTHETIC
    endpoints = cfg.tools.endpoints() if live else {}
    urls = [ep.url for ep in endpoints.values()]
    if cfg.backend.kind == BACKEND_LLM:
        urls.append(cfg.backend.endpoint)
    transport = HttpTransport(urls) if urls else None
    try:
        backend = build_backend(cfg, transport)
        if not live:
            world = load_world(cfg.tools.world)
            yield (backend, world.gazetteer, world.tag_table(),
                   SyntheticToolbox(world, scenes).adapters())
            return
        assert cfg.gazetteer is not None  # enforced by RunConfig validation
        g = load_gazetteer(cfg.gazetteer)
        tag_table = load_tag_table(cfg.tag_table, g) if cfg.tag_table else None
        yield backend, g, tag_table, live_adapters(endpoints, transport)
    finally:
        if transport is not None:
            transport.close()


# -- run --------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    trace_path = out / "run.trace.jsonl"
    desc = _load_descriptor(args.descriptor) if args.descriptor else None
    image_ref = args.image or "scene/0"
    scenes = {image_ref: desc} if desc is not None else {}
    with _tools(cfg, scenes) as (backend, g, tag_table, adapters):
        # Checked once the tools load, so a bad world or gazetteer is named first.
        if cfg.tools.mode == TOOLS_SYNTHETIC and desc is None:
            raise ConfigError("synthetic tools need --descriptor")
        if cfg.tools.mode != TOOLS_SYNTHETIC and not args.image:
            raise ConfigError("live tools need --image")
        result = record_episode(
            backend, adapters, g, image_ref=image_ref, descriptor=desc,
            tag_table=tag_table, trace_path=str(trace_path),
            settings=cfg.episode, config_hash=cfg.config_hash())

    if result.prediction is None:
        print(f"exhausted; trace: {trace_path}")
        return EXIT_EXHAUSTED
    pred = result.prediction
    payload = {"lat": pred.point.lat, "lon": pred.point.lon, "city": pred.city_name}
    (out / "prediction.json").write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(json.dumps(payload, sort_keys=True))
    print(f"trace: {trace_path}")
    return EXIT_OK


# -- bench ------------------------------------------------------------------


def cmd_bench(args) -> int:
    from .bench import load_dataset, render_text_table, run_benchmark, sample_scenes

    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    samples = load_dataset(args.dataset)
    with _tools(cfg, sample_scenes(samples)) as (backend, g, tag_table, adapters):
        run = run_benchmark(
            samples, backend, g=g, adapters=adapters, tag_table=tag_table,
            workers=args.workers, trace_dir=out / "traces",
            settings=cfg.episode, config_hash=cfg.config_hash(),
        )
    (out / "report.json").write_text(canonical_json(run.report.to_json()) + "\n")
    (out / "report.txt").write_text(render_text_table(run.report))
    with open(out / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for entry in run.entries:
            fh.write(json.dumps(entry.to_json(), sort_keys=True) + "\n")
    finalized = sum(1 for e in run.entries if e.status is EpisodeStatus.FINALIZED)
    print(f"{finalized}/{len(run.entries)} episodes finalized; "
          f"condition: {run.report.label}")
    print(render_text_table(run.report), end="")
    print(f"report: {out / 'report.json'}")
    return EXIT_OK


# -- replay -----------------------------------------------------------------


def cmd_replay(args) -> int:
    if bool(args.gazetteer) == bool(args.world):
        raise ConfigError("replay needs exactly one of --gazetteer / --world")
    if args.tag_table and not args.gazetteer:
        raise ConfigError("--tag-table goes with --gazetteer; a world has its own")
    if args.gazetteer:
        g = load_gazetteer(args.gazetteer)
        tag_table = load_tag_table(args.tag_table, g) if args.tag_table else None
    else:
        world = load_world(args.world)
        g, tag_table = world.gazetteer, world.tag_table()
    trace = load_trace(args.trace)
    try:
        report = replay(trace, g, tag_table)
    except HashMismatchError as exc:
        print(f"HashMismatch at {exc}")
        return EXIT_MISMATCH
    for event in trace.events:
        print(f"seq {event.seq}: {event.kind.value} verified")
    status = report.final_state.status.value
    print(f"final state: step {report.final_state.step}, {status}")
    if report.prediction is not None:
        p = report.prediction
        print(f"prediction: lat {p.point.lat:.5f} lon {p.point.lon:.5f} "
              f"city {p.city_name!r}")
    print(f"OK: {report.events_verified} events verified")
    return EXIT_OK


# -- synth ------------------------------------------------------------------


def _parse_mix(raw: str) -> dict[Difficulty, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ConfigError("mix must be three comma-separated fractions: easy,medium,hard")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad mix: {exc}")
    return dict(zip((Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD), values))


def cmd_synth(args) -> int:
    from .bench import DEFAULT_MIX, make_benchmark, save_dataset

    if args.provinces < 1 or args.cities < 1:
        raise ConfigError("sizes must be >= 1")
    if args.samples < 1:
        raise ConfigError("sample count must be >= 1")
    mix = _parse_mix(args.mix) if args.mix else DEFAULT_MIX
    try:
        world = generate_world(args.seed, args.provinces, args.cities)
    except ValueError as exc:
        raise ConfigError(f"cannot place {args.provinces} provinces of {args.cities} "
                          f"cities each: {exc}") from exc
    out = _out_dir(args)
    samples = make_benchmark(world, args.samples, seed=args.seed, mix=mix)
    world_path = out / "world.json"
    dataset_path = out / "synthetic.bench.jsonl"
    save_world(world, str(world_path))
    save_dataset(dataset_path, samples)
    counts = {d.value: sum(1 for s in samples if s.difficulty is d)
              for d in Difficulty}
    print(f"world: {world_path}")
    print(f"dataset: {dataset_path}")
    print(f"samples: {len(samples)} {json.dumps(counts, sort_keys=True)}")
    return EXIT_OK


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoprobe",
        description="Agentic image geolocation: episodes, benchmarks, "
                    "trace replay, and synthetic worlds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one localization episode")
    run.add_argument("--config", required=True, help="run config JSON")
    run.add_argument("--descriptor", help="scene descriptor JSON (needed in synthetic mode)")
    run.add_argument("--image", help="image reference (needed in live mode; default scene/0)")
    run.add_argument("--out", help="output directory")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="run a benchmark dataset")
    bench.add_argument("--config", required=True, help="run config JSON")
    bench.add_argument("--dataset", required=True, help="*.bench.jsonl file")
    bench.add_argument("--workers", type=int, default=1,
                       help="episode-level parallelism (default 1)")
    bench.add_argument("--out", help="output directory")
    bench.set_defaults(func=cmd_bench)

    rep = sub.add_parser("replay", help="verify a recorded trace")
    rep.add_argument("--trace", required=True, help="trace JSONL file")
    rep.add_argument("--gazetteer", help="gazetteer JSON file")
    rep.add_argument("--world", help="synthetic world JSON file")
    rep.add_argument("--tag-table", help="the tag table JSON file the run used "
                                         "(with --gazetteer)")
    rep.set_defaults(func=cmd_replay)

    synth = sub.add_parser("synth", help="generate a world and benchmark")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--provinces", type=int, default=3)
    synth.add_argument("--cities", type=int, default=5,
                       help="cities per province")
    synth.add_argument("--samples", type=int, default=60)
    synth.add_argument("--mix", help="easy,medium,hard fractions (sum to 1); "
                                     "default 0.2167,0.5667,0.2167")
    synth.add_argument("--out", help="output directory")
    synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError) as exc:
        return _fail(str(exc))
    except GeoprobeError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
