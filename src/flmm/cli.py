"""Command-line entry points.

Exit codes: 0 success, 2 config error or a log directory that already holds
a run, 3 transport error, 4 starvation or partial failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from flmm.errors import ConfigError, FlmmError, StarvationError, TransportError, \
    UsedLogError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="flmm",
                                     description="Federated adapter-fusion simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gendata", help="generate party and eval corpora")
    p.add_argument("--spec", required=True, help="scenario config file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="run the full in-process simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shapley", action="store_true")

    p = sub.add_parser("server", help="federation server")
    server_sub = p.add_subparsers(dest="server_command", required=True)
    ps = server_sub.add_parser("start")
    ps.add_argument("--config", required=True)
    ps.add_argument("--port", type=int, required=True)
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--log-dir", required=True)

    p = sub.add_parser("client", help="client agent")
    client_sub = p.add_subparsers(dest="client_command", required=True)
    pc = client_sub.add_parser("run")
    pc.add_argument("--config", required=True)
    pc.add_argument("--endpoint", required=True, help="host:port")
    pc.add_argument("--party", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)

    p = sub.add_parser("shapley", help="contribution measurement from a round log")
    p.add_argument("--log", required=True, help="server log directory")
    p.add_argument("--eval", required=True, help="eval corpus file")
    p.add_argument("--method", choices=("exact", "wtdp"), default="exact")
    # wtdp's own: given with exact, each is a config error (_WTDP_DEFAULTS)
    p.add_argument("--budget", type=int, help="wtdp: permutations (default 200)")
    p.add_argument("--tolerance", type=float, help="wtdp: truncation (default 0)")
    p.add_argument("--weights", help="wtdp: party=weight,... (default all 1)")
    p.add_argument("--seed", type=int, help="wtdp: permutation seed (default 7)")

    p = sub.add_parser("clean", help="model-scored corpus filtering")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--threshold", default="auto")
    p.add_argument("--out", default="")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except UsedLogError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TransportError as e:
        print(f"transport error: {e}", file=sys.stderr)
        return 3
    except StarvationError as e:
        print(f"starvation: {e}", file=sys.stderr)
        return 4
    except FlmmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    return {"gendata": _gendata, "simulate": _simulate, "server": _server,
            "client": _client, "eval": _eval, "shapley": _shapley,
            "clean": _clean}[args.command](args)


def _gendata(args) -> int:
    from flmm.config import load_config
    from flmm.dataquality import generate_corpus, save_corpus
    cfg = load_config(args.spec)
    os.makedirs(args.out, exist_ok=True)
    for name, spec in [(p.party_id, p.corpus) for p in cfg.parties] + [("eval", cfg.eval_spec)]:
        records = generate_corpus(spec)
        path = os.path.join(args.out, f"{name}.corpus")
        with open(path, "w") as f:
            f.write(save_corpus(records))
        print(f"wrote {len(records)} records to {path}")
    return 0


def _simulate(args) -> int:
    from flmm.config import load_config
    from flmm.simulate import run_simulation
    cfg = load_config(args.config)
    result = run_simulation(cfg, args.out, with_shapley=args.shapley)
    for rep in result.reports:
        print("\n".join(rep.lines()))
        print()
    if result.shapley is not None:
        for party, value in sorted(result.shapley.values.items()):
            print(f"shapley {party}={value:.6f}")
    if result.failure:
        print(f"partial failure: {result.failure}", file=sys.stderr)
        return 4
    return 0


def _server(args) -> int:
    from flmm.config import load_config
    from flmm.simulate import run_server
    cfg = load_config(args.config)
    run_server(cfg, args.host, args.port, args.log_dir)
    print("run complete")
    return 0


def _client(args) -> int:
    from flmm.config import load_config
    from flmm.simulate import run_client
    cfg = load_config(args.config)
    host, port = args.endpoint.rsplit(":", 1)
    rounds = run_client(cfg, args.party, host, int(port))
    print(f"client {args.party} finished after round {rounds}")
    return 0


def _load_model(path: str):
    from flmm.model import load_snapshot
    with open(path, "rb") as f:
        return load_snapshot(f.read())


def _eval(args) -> int:
    from flmm.dataquality import load_corpus
    from flmm.metrics import evaluate
    model = _load_model(args.model)
    with open(args.corpus) as f:
        records = load_corpus(f.read())
    rep = evaluate(model, records, eval_set_id=os.path.basename(args.corpus))
    print("\n".join(rep.lines()))
    return 0


# the flags only --method wtdp reads, and the value each takes when not given
_WTDP_DEFAULTS = {"budget": 200, "tolerance": 0.0, "weights": "", "seed": 7}


def _shapley(args) -> int:
    from flmm.contribution import exact_shapley, fl_value_function, wtdp_shapley
    from flmm.dataquality import load_corpus
    from flmm.model import load_snapshot
    from flmm.orchestrator import RoundLog
    given = {name: getattr(args, name) for name in _WTDP_DEFAULTS
             if getattr(args, name) is not None}
    if args.method == "exact" and given:
        raise ConfigError(f"--{next(iter(given))} applies only with --method wtdp")
    log = RoundLog(args.log)
    rounds = log.logged_rounds()
    with open(args.eval) as f:
        eval_set = load_corpus(f.read())
    parties = sorted({u.client_id for rec in rounds for u in rec.updates})
    sampling = {**_WTDP_DEFAULTS, **given}
    weights = _party_weights(sampling.pop("weights"), parties)
    initial = load_snapshot(log.checkpoint_bytes())
    fn = fl_value_function(initial, rounds, eval_set, parties)
    if args.method == "exact":
        result = exact_shapley(fn)
    else:
        result = wtdp_shapley(fn, weights, **sampling)
    v_grand = fn(frozenset(parties))
    v_empty = fn(frozenset())
    print(f"method={result.method}")
    print(f"samples={result.samples_used}")
    print(f"efficiency_residual={result.efficiency_residual(v_grand, v_empty):.3e}")
    for party, value in sorted(result.values.items()):
        print(f"value {party}={value:.6f}")
    return 0


def _party_weights(spec: str, parties: list) -> dict:
    """``--weights party=weight,...`` over the log's parties; unnamed ones weigh 1."""
    weights = {p: 1.0 for p in parties}
    for entry in filter(None, spec.split(",")):
        party, sep, value = entry.partition("=")
        if not sep:
            raise ConfigError(f"--weights entry {entry!r} is not party=weight")
        if party not in weights:
            raise ConfigError(f"--weights names {party!r}, which the log does not hold")
        try:
            weights[party] = float(value)
        except ValueError:
            raise ConfigError(f"--weights entry {entry!r}: weight is not a number") from None
        if not math.isfinite(weights[party]):
            raise ConfigError(f"--weights entry {entry!r}: weight is not finite")
    return weights


def _clean(args) -> int:
    from flmm.config import KNOWN_KEYS, parse_value
    from flmm.dataquality import load_corpus, repair_corpus, save_corpus, \
        score_and_filter
    thr = parse_value(KNOWN_KEYS["quality"]["threshold"], args.threshold, "--threshold")
    model = _load_model(args.model)
    with open(args.corpus) as f:
        records = load_corpus(f.read())
    records = repair_corpus(records)
    kept, dropped = score_and_filter(model, records, thr)
    print(f"kept={len(kept)} dropped={len(dropped)}")
    if args.out:
        with open(args.out, "w") as f:
            f.write(save_corpus(kept))
        print(f"wrote kept records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
