"""CLI: run an instrumented demo (or app) and render its telemetry.

Usage::

    python -m repro.obs                      # built-in overflow demo
    python -m repro.obs --app bc             # instrument a registry app
    python -m repro.obs --jsonl out.jsonl    # also export span/metric rows
    python -m repro.obs --render out.jsonl   # re-render a prior export
    python -m repro.obs --store store.json --app bc   # + health beacon
    python -m repro.obs fleet store.json     # fleet health report

The demo runs a small buggy server under FirstAidRuntime with telemetry
enabled, survives the injected overflow, and prints the span tree, the
Table 5 phase breakdown, and the metrics snapshot.  ``--render`` never
executes anything: it loads a JSONL export and prints the same report
from it.  ``fleet`` aggregates the health channel riding next to a
shared patch store (DESIGN.md §12) into the canonical fleet health
report; ``--json`` prints it as sorted JSON instead of text.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.export import export_jsonl, load_jsonl, render_report

#: The demo program: a server whose request handler overflows a
#: 32-byte buffer whenever a request exceeds it (same shape as the
#: paper's buffer-overflow case study).
DEMO_SERVER = """
int victim = 0;
int target = 0;
int handle(int n) {
    int buf = malloc(32);
    int i = 0;
    while (i < n) { store1(buf + i, 65); i = i + 1; }
    free(buf);
    return 0;
}
int main() {
    int hole = malloc(32);
    victim = malloc(48);
    target = malloc(48);
    store(target, 0);
    store(victim, target);
    free(hole);
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        handle(op);
        int p = load(victim);
        store(p, load(p) + 1);
        output(1);
    }
}
"""


def _demo_tokens(triggers: int) -> list:
    tokens = [8] * 20
    for _ in range(triggers):
        tokens += [64] + [8] * 60
    return tokens + [0]


def _run_demo(triggers: int):
    from repro.core.runtime import FirstAidConfig, FirstAidRuntime
    from repro.lang import compile_program

    program = compile_program(DEMO_SERVER, "obs-demo")
    config = FirstAidConfig(checkpoint_interval=2000, telemetry=True)
    runtime = FirstAidRuntime(program, input_tokens=_demo_tokens(triggers),
                              config=config)
    session = runtime.run()
    return runtime, session, program.name


def _run_app(name: str, triggers: int, store: str = None):
    from repro.apps.registry import get_app
    from repro.bench.harness import spaced_workload
    from repro.core.runtime import FirstAidConfig, FirstAidRuntime

    app = get_app(name)
    wl = spaced_workload(app, triggers)
    config = FirstAidConfig(telemetry=True, store_path=store)
    runtime = FirstAidRuntime(app.program(), input_tokens=wl.tokens,
                              config=config)
    session = runtime.run()
    return runtime, session, app.INFO.name


def _fleet_main(argv) -> int:
    import json
    import os

    from repro.obs.health import aggregate_store

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs fleet",
        description="Aggregate the fleet health channel next to a "
        "shared patch store into the canonical fleet health report.")
    parser.add_argument("store", metavar="STORE",
                        help="path to the shared patch store (or its "
                        ".health sidecar)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as sorted JSON instead "
                        "of text")
    args = parser.parse_args(argv)
    report = aggregate_store(args.store)
    rollout = _rollout_section(args.store)
    try:
        if args.json:
            payload = report.to_json()
            if rollout is not None:
                payload["rollout"] = rollout
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(report.render())
            if rollout is not None:
                print()
                print(_render_rollout(rollout))
    except BrokenPipeError:  # e.g. piped into `head`
        os.close(sys.stdout.fileno())
    return 0


def _rollout_section(store_arg: str):
    """Rollout stages for the patch store next to the health channel,
    or None when the store carries no rollout metadata (pre-rollout
    fleets keep their exact report output)."""
    import os

    from repro.store import SharedPatchStore

    path = store_arg[:-len(".health")] \
        if store_arg.endswith(".health") else store_arg
    if not os.path.exists(path):
        return None
    try:
        state = SharedPatchStore(path, program_name=None).load()
    except Exception:
        return None
    has_envelopes = any(isinstance(p.get("rollout"), dict)
                        for p in state.patches.values())
    if not has_envelopes and not state.rolled_back:
        return None
    stages = state.stages()
    return {
        "generation": state.generation,
        "stages": stages,
        "since_ns": {
            key: int(payload["rollout"].get("since_ns", 0))
            for key, payload in sorted(state.patches.items())
            if isinstance(payload.get("rollout"), dict)},
        "rolled_back": {
            key: {"reason": str(record.get("reason", "")),
                  "time_ns": int(record.get("time_ns", 0)),
                  "count": int(record.get("count", 0))}
            for key, record in sorted(state.rolled_back.items())},
    }


def _render_rollout(rollout: dict) -> str:
    lines = [f"rollout stages (store generation "
             f"{rollout['generation']})"]
    for key, stage in sorted(rollout["stages"].items()):
        since = rollout["since_ns"].get(key)
        suffix = f" since={since}ns" if since is not None else ""
        record = rollout["rolled_back"].get(key)
        if record and record["reason"]:
            suffix += f"  ({record['reason']})"
        lines.append(f"  {stage:<12s} {key}{suffix}")
    return "\n".join(lines)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fleet":
        return _fleet_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run an instrumented First-Aid session and render "
        "its telemetry (spans, phase breakdown, metrics).")
    parser.add_argument("--app", metavar="NAME",
                        help="instrument a registry app instead of the "
                        "built-in overflow demo")
    parser.add_argument("--triggers", type=int, default=1,
                        help="number of bug triggers in the workload "
                        "(default: 1)")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="export spans + metrics as JSONL to PATH")
    parser.add_argument("--render", metavar="PATH",
                        help="render a previous JSONL export instead "
                        "of running anything")
    parser.add_argument("--store", metavar="PATH",
                        help="shared patch store path: the session "
                        "publishes patches and health beacons there "
                        "(render with `python -m repro.obs fleet PATH`)")
    args = parser.parse_args(argv)

    if args.render:
        with open(args.render) as fh:
            loaded = load_jsonl(fh)
        title = loaded["meta"].get("program", args.render)
        print(render_report(loaded, title=f"telemetry: {title}"))
        return 0

    if args.app:
        runtime, session, name = _run_app(args.app, args.triggers,
                                          store=args.store)
    elif args.store:
        parser.error("--store needs --app (the demo program has no "
                     "registry identity to share a store under)")
    else:
        runtime, session, name = _run_demo(args.triggers)

    telemetry = runtime.telemetry
    now_ns = runtime.process.clock.now_ns
    print(render_report(telemetry, title=f"telemetry: {name}"))
    print()
    print(f"session: reason={session.reason} "
          f"recoveries={len(session.recoveries)} "
          f"survived_all={session.survived_all}")

    if args.jsonl:
        health = []
        if runtime.fleet is not None:
            health = list(
                runtime.fleet.health.load().live_beacons().values())
        with open(args.jsonl, "w") as fh:
            rows = export_jsonl(telemetry, fh, time_ns=now_ns,
                                meta={"program": name,
                                      "time_ns": now_ns,
                                      "reason": session.reason},
                                health=health)
        print(f"wrote {rows} rows to {args.jsonl}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
