"""Command-line front end: eval | audit | repro | gen.

Environment overrides (DELEGATEBOX_FORMAT, _MODE, _SEED) are read only where
used and beaten by explicit flags. Errors, a bad override among them, print a
machine-readable record and exit 2; once an instance is loaded, the record
carries its ``instance_digest``. audit and repro exit 1 when a check fails.

``main`` builds its argument parser on its first call and reuses it for the
rest of the process. The build reads no environment and parsing changes
nothing on the parser, so no flag carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import bounds, delegation, instances, pandora, repro
from .core import (
    DelegateboxError,
    Instance,
    InvalidParameters,
    as_number,
    instance_digest,
    instance_from_json,
    instance_to_json,
    to_json,
)

# The composed mechanisms, which report a branch and can be audited.
COMPOSED = {
    "maximal": delegation.maximal_mechanism_costless,
    "costly": delegation.costly_mechanism,
    "identical": delegation.identical_cost_mechanism,
}
MECHANISMS = ("pnoi", "spmi", *COMPOSED, "weitzman")
REGIMES = tuple(bounds.REGIMES)
# Each family parameter, in first-seen order, and whether its default is an int.
FAMILY_FLAGS = {
    name: type(default) is int
    for _, defaults in instances.FAMILIES.values()
    for name, default in defaults.items()
}
FORMATS = ("table", "json")
MODES = ("exact", "float")


def _env(name: str) -> str:
    return os.environ.get(f"DELEGATEBOX_{name}", "")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delegatebox",
        description="Evaluate and audit delegation mechanisms with inspection costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--instance", help="path to an instance JSON file")
        p.add_argument("--family", choices=instances.FAMILIES, help="generate instead of reading")
        for name, is_int in FAMILY_FLAGS.items():
            if name != "seed":  # --seed is shared with repro, below
                p.add_argument("--" + name.replace("_", "-"), type=int if is_int else None)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true")
        mode.add_argument("--float", dest="float_mode", action="store_true")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=FORMATS, default=None)

    p_eval = sub.add_parser("eval", help="evaluate one mechanism on an instance")
    common(p_eval)
    p_eval.add_argument("--mechanism", choices=MECHANISMS, required=True)

    p_audit = sub.add_parser("audit", help="check a mechanism against its claimed factor")
    common(p_audit)
    p_audit.add_argument("--regime", choices=REGIMES, required=True)
    p_audit.add_argument("--alpha", default=None)
    p_audit.add_argument("--mechanism", choices=MECHANISMS, default=None)

    p_repro = sub.add_parser("repro", help="run the fixed suite of headline claims")
    p_repro.add_argument("--seed", type=int, default=None)
    p_repro.add_argument("--format", choices=FORMATS, default=None)

    p_gen = sub.add_parser("gen", help="write an instance JSON")
    common(p_gen)
    p_gen.add_argument("--out", help="output path (default: stdout)")

    return parser


# Filled on the first ``main`` call, not at import, so importers that never
# parse do not pay for the build.
_parser = functools.cache(_build_parser)


def _env_choice(name: str, choices, default: str) -> str:
    value = _env(name) or default
    if value not in choices:
        raise InvalidParameters(
            f"DELEGATEBOX_{name} must be one of {', '.join(choices)}, not {value!r}"
        )
    return value


def _resolve_format(args) -> str:
    return getattr(args, "format", None) or _env_choice("FORMAT", FORMATS, "table")


def _resolve_mode(args) -> str:
    if getattr(args, "float_mode", False):
        return "float"
    if getattr(args, "exact", False):
        return "exact"
    return _env_choice("MODE", MODES, "exact")


def _resolve_seed(args) -> Optional[int]:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = _env("SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise InvalidParameters(f"DELEGATEBOX_SEED must be an integer, not {env!r}") from None


def _reject_flags(args, taken, source: str) -> None:
    """Raise on a family flag given to a source that does not take it."""
    for name in sorted(FAMILY_FLAGS):
        if name not in taken and getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise InvalidParameters(f"{flag} does not apply to {source}")


def _generate(args) -> tuple[Instance, Optional[delegation.SignalingMechanism], dict]:
    """Build --family, each parameter from its flag or else the registry default.

    Returns the instance, its mechanism (if the family has one) and the
    ``generator`` record of the output. Other families' flags are errors.
    """
    defaults = instances.FAMILIES[args.family][1]
    _reject_flags(args, defaults, f"the {args.family} family")
    params = {}
    for name, default in defaults.items():
        flag = _resolve_seed(args) if name == "seed" else getattr(args, name)
        params[name] = default if flag is None else flag
    instance, mechanism = instances.gen(args.family, params)
    meta = {"family": args.family, "params": {k: str(v) for k, v in params.items()}}
    return instance, mechanism, meta


def _load_instance(args) -> tuple[Instance, Optional[dict]]:
    """The instance of --instance or --family, and its ``generator`` record.

    Sets ``args.instance_digest``, which ``main`` adds to the error record of
    anything raised after the load.
    """
    mode = _resolve_mode(args)
    if args.instance and args.family:
        raise InvalidParameters("give either --instance or --family, not both")
    if args.instance:
        _reject_flags(args, (), "--instance")
        try:
            text = Path(args.instance).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidParameters(f"instance file is not UTF-8: {exc}") from None
        inst, meta = instance_from_json(text, mode), None
    elif args.family:
        inst, _, meta = _generate(args)
        inst = inst if mode == "exact" else inst.to_float()
    else:
        raise InvalidParameters("need --instance PATH or --family NAME")
    args.instance_digest = instance_digest(inst)
    return inst, meta


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
        return
    for key, value in obj.items():
        if key == "rows":
            for row in value:
                mark = "pass" if row["pass"] else "FAIL"
                print(f"[{mark}] {row['name']}")
                for k, v in row["details"].items():
                    print(f"        {k} = {v}")
        else:
            print(f"{key}: {value}")


def _mechanism_report(inst: Instance, name: str) -> dict:
    if name == "pnoi":
        return {"mechanism": "pnoi", "value": pandora.pnoi_value(inst)}
    if name == "weitzman":
        return {"mechanism": "weitzman", "value": pandora.weitzman_value(inst)}
    if name == "spmi":
        spmi = delegation.build_spmi(inst)
        return {
            "mechanism": "spmi",
            "value": delegation.evaluate_spmi(inst, spmi),
            "threshold": spmi.threshold,
            "agent_model": "worst_case",
        }
    out = COMPOSED[name](inst).to_obj()
    out["mechanism"] = name
    return out


def _cmd_eval(args) -> int:
    fmt = _resolve_format(args)
    inst, meta = _load_instance(args)
    out = to_json(_mechanism_report(inst, args.mechanism))
    out["schema"] = repro.SUITE_VERSION
    out["instance_digest"] = args.instance_digest
    out["arithmetic_mode"] = inst.mode
    if meta:
        out["generator"] = meta
    _emit(out, fmt)
    return 0


def _cmd_audit(args) -> int:
    fmt = _resolve_format(args)
    mechanism = args.mechanism or bounds.REGIMES[args.regime][0]
    if mechanism not in COMPOSED:
        raise InvalidParameters(f"audit needs a composed mechanism ({'|'.join(COMPOSED)})")
    inst, meta = _load_instance(args)
    alpha = as_number(args.alpha, inst.mode) if args.alpha is not None else None
    report = COMPOSED[mechanism](inst)
    audit_report = bounds.audit(inst, report, args.regime, alpha)
    out = audit_report.to_obj()
    out["schema"] = repro.SUITE_VERSION
    out["mechanism"] = mechanism
    if meta:
        out["generator"] = meta
    _emit(out, fmt)
    return 0 if audit_report.passed else 1


def _cmd_repro(args) -> int:
    fmt = _resolve_format(args)
    seed = _resolve_seed(args)
    result = repro.run_repro(7 if seed is None else seed)
    _emit(result, fmt)
    return 0 if result["all_pass"] else 1


def _cmd_gen(args) -> int:
    flags = {"--exact": args.exact, "--float": args.float_mode, "--format": args.format}
    for flag, given in flags.items():
        if given:
            raise InvalidParameters(f"{flag} does not apply to gen")
    if not args.family:
        raise InvalidParameters("gen needs --family")
    inst, mechanism, meta = _generate(args)
    obj = {
        "schema": repro.SUITE_VERSION,
        "generator": meta,
        "instance": json.loads(instance_to_json(inst)),
        "instance_digest": instance_digest(inst),
    }
    if mechanism is not None:
        obj["mechanism"] = delegation.mechanism_to_obj(mechanism)
    text = json.dumps(obj, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# Each subcommand's handler, which returns the exit code.
COMMANDS = {
    "eval": _cmd_eval,
    "audit": _cmd_audit,
    "repro": _cmd_repro,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # No record for a reader that left; on the null device stdout's exit flush is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DelegateboxError, OSError) as exc:
        kind = "IOError" if isinstance(exc, OSError) else type(exc).__name__
        error = {"type": kind, "message": str(exc)}
        digest = getattr(args, "instance_digest", None)
        if digest is not None:
            error["instance_digest"] = digest
        print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
