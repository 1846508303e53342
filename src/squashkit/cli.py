"""Command-line surface: batch workflows over JSON files.

Exit codes: 0 success, 1 negative verdict (no squash, or a map failed verification),
2 malformed input, an unreadable file or a failed self-check, 3 undecided. Each class
of :mod:`squashkit.errors` maps to one; any other exception is a program fault.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import builder, finder, fock, linalg, nogo, povm, squashmap
from .errors import ConstructionError, SquashkitError, TildeNotVerified

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3


def _require_dim(dim: int, what: str) -> None:
    """Bound a dimension no file states: a sector's, or a symmetrization's d * |G|."""
    if dim > (limit := linalg.MAX_INPUT_DIM):
        raise SquashkitError(f"{what} has dimension {dim}, above the supported {limit}")


#: Largest --trials, the documented range; the attack draws two counts, so its time is flat in it.
MAX_TRIALS = 10**8


def _ranged(kind, test, rule: str):
    """An argparse ``type=`` that converts with ``kind`` and refuses a value failing ``test``."""
    def convert(text: str):
        if not test(value := kind(text)):
            raise argparse.ArgumentTypeError(rule)
        return value
    convert.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return convert


_trials = _ranged(int, lambda n: 0 <= n <= MAX_TRIALS, f"must be between 0 and {MAX_TRIALS}")
_seed = _ranged(int, lambda n: n >= 0, "must be at least 0")
_tolerance = _ranged(float, lambda t: 0 < t < math.inf, "must be positive and finite")


#: Compact and strict; with no indent, ``encode`` runs CPython's C encoder.
_ENCODE = json.JSONEncoder(allow_nan=False).encode
#: A dict key as json.dumps writes a string key; any other key raises TypeError.
_KEY = json.encoder.encode_basestring_ascii


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, byte for byte.

    The one renderer of the ``*_to_json`` trees: dicts with string keys, lists, scalars,
    and nonempty 1-D complex arrays for matrix and vector entries. Each array is written
    as json.dumps writes its list of [re, im] pairs, in one %-format of all its rows:
    ``%r`` is the shortest repr, which json writes for a float. A key that is not a string
    raises TypeError before anything is written.
    """
    inner = indent + "  "
    if isinstance(obj, np.ndarray) and obj.size:
        if not np.isfinite(obj).all():
            raise ValueError("Out of range float values are not JSON compliant")
        rows = f",\n{inner}".join([f"[\n{inner}  %r,\n{inner}  %r\n{inner}]"] * obj.size)
        return f"[\n{inner}{rows}\n{indent}]" % tuple(obj.view(float).tolist())
    if isinstance(obj, dict) and obj:
        items = [f"{_KEY(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, list) and obj:
        items = [_json_text(item, inner) for item in obj]
        brackets = "[]"
    else:  # a scalar, {} or []
        return _ENCODE(obj)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _write_json(obj: dict, out: str | None) -> None:
    text = _json_text(obj) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    # mode 0o666 under O_EXCL lets the umask set the permissions, as open() does
    tmp = os.path.join(directory, f".squashkit-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # e.g. out is a directory: name it, not the temporary file
            raise SquashkitError(f"argument --out: cannot write {out!r}: {exc.strerror}") from exc
        raise


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError:
            raise
        except (RecursionError, ValueError) as exc:  # nested too deep, not UTF-8, 4300+ digits
            raise SquashkitError(f"{path} is not JSON text that can be read: {exc}") from exc


def _parse_sector(text: str) -> fock.FockSector:
    try:
        photons = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise SquashkitError(f"cannot parse sector {text!r}") from exc
    sector = fock.fock_sector(photons)
    _require_dim(sector.dim, f"sector {text!r}")
    return sector


def _load_povm(path: str, tol: float) -> povm.Bb84Povm:
    p = povm.povm_from_json(_load_json(path))
    if not povm.validate(p, tol).passed:
        raise SquashkitError(f"{path} is not a valid measurement set at tol={tol}")
    return p


def _load_squash(path: str) -> squashmap.SquashMap:
    """A squash file, or a finder report wrapping one."""
    blob = _load_json(path)
    if isinstance(blob, dict) and "kraus" not in blob and "squash" in blob:
        if blob["squash"] is None:
            verdict = blob.get("verdict")
            raise SquashkitError(f"{path} holds no squash map (finder verdict {verdict!r})")
        blob = blob["squash"]
    return squashmap.squash_from_json(blob)


def cmd_detector(args) -> None:
    if args.N is not None:
        _write_json(fock.detector_to_json(fock.build_detector(_parse_sector(args.N))), args.out)
        return
    if args.out is None:
        raise SquashkitError("a sweep needs --out pointing at a directory")
    for sector in fock.enumerate_sectors(args.sweep_max):
        model = fock.build_detector(sector)
        name = "detector_N" + "-".join(str(n) for n in sector.photons) + ".json"
        _write_json(fock.detector_to_json(model), os.path.join(args.out, name))


def cmd_construct(args) -> None:
    if (args.unitary is None) != (args.povm is None):
        raise SquashkitError("construct takes --unitary with --povm, and none with --sector")
    if args.sector is not None:
        model = fock.build_detector(_parse_sector(args.sector))
        p, sym = model.povm, model.symmetry
    else:
        p = _load_povm(args.povm, args.tol)
        sym = fock.C4Symmetry(u=linalg.matrix_from_json(_load_json(args.unitary)))
    _write_json(squashmap.squash_to_json(builder.construct_theorem1(p, sym, args.tol)), args.out)


def cmd_find(args) -> int:
    if args.sector is not None:
        p = fock.build_detector(_parse_sector(args.sector)).povm
    else:
        p = _load_povm(args.povm, args.tol)
    report = finder.find_squash(p, tol=args.tol)
    _write_json(finder.report_to_json(report), args.out)
    return {"FEASIBLE": EXIT_OK, "INFEASIBLE": EXIT_NEGATIVE}.get(report.verdict, EXIT_UNDECIDED)


def cmd_m0(args) -> None:
    _write_json(povm.povm_to_json(nogo.counterexample_m0()), args.out)


def cmd_attack(args) -> None:
    result = nogo.bbm92_attack(_load_povm(args.povm, args.tol), args.trials, args.seed)
    _write_json(nogo.attack_to_json(result), args.out)


#: The built-in groups by name, each with its default label action, or None.
_BUILTIN_GROUPS = {
    "c2": (lambda: nogo.cyclic_group(2), nogo.c2_basis_swap_action),
    "c4": (lambda: nogo.cyclic_group(4), nogo.canonical_c4_action),
    "s3": (nogo.symmetric_group_s3, None),
}


def _symmetrized(args) -> nogo.SymmetrizedPovm:
    """The --povm set symmetrized by --group; a group file is sized by its row count first."""
    base = _load_povm(args.povm, args.tol)
    what = f"the symmetrization of {args.povm} by {args.group}"
    make, default = _BUILTIN_GROUPS.get(args.group, (None, None))
    if make is not None:
        group = make()
        _require_dim(base.dim * group.order, what)
    else:
        blob = _load_json(args.group)
        _require_dim(base.dim * len(linalg.json_field(blob, "cayley", list)), what)
        group = nogo.group_from_json(blob)
    if args.action is not None:
        action = nogo.action_from_json(_load_json(args.action))
    elif default is not None:
        action = default()
    else:
        raise SquashkitError(f"no default label action for group {args.group!r}; pass --action")
    return nogo.symmetrize(base, group, action)


def cmd_symmetrize(args) -> None:
    _write_json(povm.povm_to_json(_symmetrized(args).tilde), args.out)


def cmd_pullback(args) -> None:
    symmetrized = _symmetrized(args)
    f_tilde = _load_squash(args.squash)
    pulled = nogo.pullback_squash(symmetrized, f_tilde, args.tol)
    _write_json(squashmap.squash_to_json(pulled), args.out)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no flag starts -<digit>, -. , -inf or -nan: -1,2, -1e-3 and -inf are values, so
        # the sector parser or the range check refuses them, as in their --flag=value spelling
        self._negative_number_matcher = re.compile(r"^-([\d.]|inf|nan)", re.IGNORECASE)

    def error(self, message):  # a usage error is one line and exit 2, as any input error
        raise SquashkitError(" ".join(message.splitlines()))  # an argument may hold a newline


def _mode(modes, name: str, func, text: str, tol: float | None = None) -> _Parser:
    """A mode's parser with its dispatch, its --out and, given a default, its --tol."""
    mode = modes.add_parser(name, help=text, description=text)
    mode.set_defaults(func=func)
    mode.add_argument("--out", type=_ranged(str, len, "must not be empty"),
                      help="output path (stdout when omitted)")
    if tol is not None:
        mode.add_argument("--tol", type=_tolerance, default=tol, help="default %(default)g")
    return mode


@functools.cache  # built on the first call, not at import, and reused after
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="squashkit", description="Squash operators for BB84 threshold detectors")
    commands = parser.add_subparsers(dest="command", required=True)

    det = _mode(commands, "detector", cmd_detector, "build threshold-detector models")
    size = det.add_mutually_exclusive_group(required=True)
    size.add_argument("--N", help="photon numbers per mode, e.g. 2 or 2,1")
    size.add_argument("--sweep-max", type=int, choices=range(1, 9),
                      help="write every sector with total <= bound into the --out directory")

    command = commands.add_parser("squash", help="construct or search for a squash map")
    modes = command.add_subparsers(dest="mode", required=True)
    construct = _mode(modes, "construct", cmd_construct, "Theorem 1's squash", linalg.TOL)
    find = _mode(modes, "find", cmd_find, "feasibility search", linalg.LOOSE_TOL)
    for mode in (construct, find):
        source = mode.add_mutually_exclusive_group(required=True)
        source.add_argument("--sector", help="photon numbers per mode, e.g. 2 or 2,1")
        source.add_argument("--povm", help="measurement-set JSON file")
    construct.add_argument("--unitary", help="cycling-unitary JSON file, any global phase")

    command = commands.add_parser("nogo", help="symmetrization, pullback, attack demo")
    modes = command.add_subparsers(dest="mode", required=True)
    _mode(modes, "m0", cmd_m0, "write the counterexample set M0")
    attack = _mode(modes, "attack", cmd_attack, "zero-error attack statistics", linalg.TOL)
    symmetrize = _mode(modes, "symmetrize", cmd_symmetrize, "symmetrize a set", linalg.TOL)
    pullback = _mode(modes, "pullback", cmd_pullback, "pull a squash back", linalg.LOOSE_TOL)
    for mode in (attack, symmetrize, pullback):
        mode.add_argument("--povm", required=True, help="measurement-set JSON file")
    attack.add_argument("--trials", type=_trials, default=10000)
    attack.add_argument("--seed", type=_seed, default=0)
    for mode in (symmetrize, pullback):
        mode.add_argument("--group", default="c4", help="c2, c4, s3, or a JSON file")
        mode.add_argument("--action", help="label-action JSON file")
    pullback.add_argument("--squash", required=True, help="squash or finder-report JSON file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args) or EXIT_OK  # a command that returns nothing succeeded
    except (SquashkitError, OSError, json.JSONDecodeError) as exc:
        print(f"squashkit: {exc}", file=sys.stderr)
        negative = isinstance(exc, (ConstructionError, TildeNotVerified))
        return EXIT_NEGATIVE if negative else EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
