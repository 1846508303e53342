import contextlib
import io
import json
import os
import pickle
import re
import shlex
import stat
import tempfile
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squashkit
from squashkit import builder, cli, errors, finder, fock, linalg, nogo, povm, squashmap
from squashkit.cli import main

from helpers import (
    MUTATIONS,
    SKEW,
    fresh_python,
    json_paths,
    mutation_text,
    qubit_plus_half_block,
    written,
)


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def read(path):
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture
def m0_file(tmp_path):
    path = tmp_path / "m0.json"
    assert main(["nogo", "m0", "--out", str(path)]) == 0
    return path


@pytest.fixture
def big_file(tmp_path):
    """A valid measurement set one dimension above the command-line limit."""
    eye, zero = np.eye(257), np.zeros((257, 257))
    big = povm.make_povm({"z0": eye, "z1": zero, "x0": eye, "x1": zero})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(written(povm.povm_to_json(big))))
    return path


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(written(povm.povm_to_json(povm.ideal_qubit_povm()))))
    return path


@pytest.fixture
def near_file(tmp_path):
    """The ideal qubit set with z0 scaled by 1 + 5e-9: valid at 1e-8, not at 1e-9."""
    elements = dict(povm.ideal_qubit_povm().elements)
    elements["z0"] = (1 + 5e-9) * elements["z0"]
    path = tmp_path / "near.json"
    path.write_text(json.dumps(written(povm.povm_to_json(povm.make_povm(elements)))))
    return path


@pytest.fixture
def qubit_unitary_file(tmp_path):
    path = tmp_path / "qubit_unitary.json"
    path.write_text(json.dumps(written(linalg.matrix_to_json(
        linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)
    ))))
    return path


@pytest.fixture
def ideal_c2_squash_file(tmp_path):
    """A squash of the ideal qubit set symmetrized over C2 by the basis swap."""
    s = nogo.symmetrize(povm.ideal_qubit_povm(), nogo.cyclic_group(2),
                        nogo.c2_basis_swap_action())
    report = finder.find_squash(s.tilde)
    assert report.verdict == "FEASIBLE"
    path = tmp_path / "ideal_c2_squash.json"
    path.write_text(json.dumps(written(squashmap.squash_to_json(report.squash))))
    return path


@pytest.fixture
def skew_qubit_file(tmp_path):
    """The ideal qubit set with z0 and z1 carrying opposite parts SKEW."""
    elements = dict(povm.ideal_qubit_povm().elements)
    elements["z0"], elements["z1"] = elements["z0"] + SKEW, elements["z1"] - SKEW
    path = tmp_path / "skew_qubit.json"
    path.write_text(json.dumps(written(povm.povm_to_json(povm.make_povm(elements)))))
    return path


@pytest.fixture
def skew_detector_file(tmp_path):
    """The (1,) detector set with its z pair shifted by +-SKEW and its x pair U_N z U_N+."""
    model = fock.build_detector(fock.fock_sector((1,)))
    u = model.symmetry.u
    z0, z1 = model.povm.element("z", 0) + SKEW, model.povm.element("z", 1) - SKEW
    elements = {"z0": z0, "z1": z1, "x0": u @ z0 @ u.conj().T, "x1": u @ z1 @ u.conj().T}
    path = tmp_path / "skew_detector.json"
    path.write_text(json.dumps(written(povm.povm_to_json(povm.make_povm(elements)))))
    return path


@pytest.fixture
def detector_unitary_file(tmp_path):
    path = tmp_path / "detector_unitary.json"
    u = fock.build_detector(fock.fock_sector((1,))).symmetry.u
    path.write_text(json.dumps(written(linalg.matrix_to_json(u))))
    return path


@pytest.fixture
def list_file(tmp_path):
    """A JSON file whose top level is a list, not an object."""
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    return path


@pytest.fixture
def list_action_file(tmp_path):
    """A label-action file whose top level is a list of index rows, not an object."""
    path = tmp_path / "list_action.json"
    path.write_text("[[0, 1, 2, 3]]")
    return path


@pytest.fixture
def string_action_file(tmp_path):
    """A label-action file whose top level is one label."""
    path = tmp_path / "string_action.json"
    path.write_text('"z0"')
    return path


@pytest.fixture
def deep_file(tmp_path):
    """A JSON file nested past the decoder's recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


@pytest.fixture
def nan_squash_file(tmp_path):
    """A C2-symmetrized-qubit squash whose first entry is the JSON token NaN."""
    blob = written(squashmap.squash_to_json(
        squashmap.squash_from_kraus(4, (np.eye(2, 4), np.eye(2, 4, 2)))
    ))
    blob["kraus"][0]["entries"][0] = [float("nan"), 0.0]
    path = tmp_path / "nan_squash.json"
    path.write_text(json.dumps(blob))
    return path


@pytest.fixture
def c129_file(tmp_path):
    """The cyclic group of order 129: a qubit set symmetrized by it has dimension 258."""
    path = tmp_path / "c129.json"
    path.write_text(json.dumps(nogo.group_to_json(nogo.cyclic_group(129))))
    return path


@pytest.fixture
def trivial129_file(tmp_path):
    path = tmp_path / "trivial129.json"
    path.write_text(json.dumps({"labels": ["z0", "x0", "z1", "x1"],
                                "perms": [["z0", "x0", "z1", "x1"]] * 129}))
    return path


def test_detector_single_sector(tmp_path):
    out = tmp_path / "det.json"
    assert main(["detector", "--N", "2", "--out", str(out)]) == 0
    assert read(out)["dim"] == 3


def test_detector_two_modes(tmp_path):
    out = tmp_path / "det.json"
    assert main(["detector", "--N", "1,1", "--out", str(out)]) == 0
    assert read(out)["dim"] == 4


def test_detector_rejects_vacuum(tmp_path):
    assert main(["detector", "--N", "0", "--out", str(tmp_path / "x.json")]) == 2


def test_detector_rejects_garbage(tmp_path):
    assert main(["detector", "--N", "two", "--out", str(tmp_path / "x.json")]) == 2


def test_detector_sweep(tmp_path):
    out = tmp_path / "sweep"
    assert main(["detector", "--sweep-max", "2", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "detector_N2.json" in names
    assert "detector_N1-1.json" in names


def test_detector_sweep_bound(tmp_path):
    assert main(["detector", "--sweep-max", "9", "--out", str(tmp_path / "s")]) == 2


def test_detector_refuses_n_with_sweep_max(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(tmp_path, "detector", "--N", "1", "--sweep-max", "2", "--out", out) == 2
    assert capsys.readouterr().err == (
        "squashkit: argument --sweep-max: not allowed with argument --N\n"
    )
    assert not out.exists()


def test_squash_construct_sector(tmp_path):
    out = tmp_path / "squash.json"
    assert main(["squash", "construct", "--sector", "2", "--out", str(out)]) == 0
    loaded = squashmap.squash_from_json(read(out))
    assert loaded.in_dim == 3


def test_squash_construct_m0_fails_scientifically(m0_file, tmp_path):
    unitary = tmp_path / "u.json"
    unitary.write_text(
        json.dumps({"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]})
    )
    code = main(
        ["squash", "construct", "--povm", str(m0_file), "--unitary", str(unitary),
         "--out", str(tmp_path / "s.json")]
    )
    assert code == 1


def construct_from_files(tmp_path, p, u):
    """Run ``squash construct --povm --unitary`` on in-memory inputs."""
    povm_file, unitary_file = tmp_path / "p.json", tmp_path / "u.json"
    povm_file.write_text(json.dumps(written(povm.povm_to_json(p))))
    unitary_file.write_text(json.dumps(written(linalg.matrix_to_json(u))))
    out = tmp_path / "s.json"
    argv = ["squash", "construct", "--povm", povm_file, "--unitary", unitary_file, "--out", out]
    return main([str(a) for a in argv]), out


@pytest.mark.parametrize("photons, phase", [((3,), 1.0), ((2,), np.exp(0.3j))])
def test_squash_construct_accepts_any_global_phase(photons, phase, tmp_path):
    # U_N of (3,) has U^4 = -1; the second input carries an arbitrary phase
    model = fock.build_detector(fock.fock_sector(photons))
    code, out = construct_from_files(tmp_path, model.povm, phase * model.symmetry.u)
    assert code == 0
    loaded = squashmap.squash_from_json(read(out))
    assert squashmap.verify_squash(loaded, model.povm, tol=1e-9).passed


def test_squash_construct_validates_povm_at_the_tolerance_in_force(tmp_path):
    # completeness is off by 1e-8 per basis: inside 1e-6, outside the default 1e-9
    model = fock.build_detector(fock.fock_sector((2,)))
    elements = {key: (1 - 1e-8) * m for key, m in model.povm.elements.items()}
    shrunk = povm.make_povm(elements)
    code, out = construct_from_files(tmp_path, shrunk, model.symmetry.u)
    assert code == 2 and not out.exists()
    code = run(tmp_path, "squash", "construct", "--povm", tmp_path / "p.json",
               "--unitary", tmp_path / "u.json", "--tol", "1e-6", "--out", out)
    assert code == 0
    loaded = squashmap.squash_from_json(read(out))
    assert squashmap.verify_squash(loaded, shrunk, tol=1e-6).passed


def test_squash_construct_accepts_a_non_scalar_fourth_power(tmp_path):
    p, u = qubit_plus_half_block()  # U^4 is -1 on the qubit and e^{1.2i} beside it
    code, out = construct_from_files(tmp_path, p, u)
    assert code == 0
    assert squashmap.verify_squash(squashmap.squash_from_json(read(out)), p).passed


def test_squash_construct_non_scalar_fourth_power_is_negative(tmp_path, capsys):
    # diag(1, e^{i pi/8}) fixes sigma_z, so it cycles nothing
    u = np.diag([1.0, np.exp(1j * np.pi / 8)]).astype(complex)
    code, out = construct_from_files(tmp_path, povm.ideal_qubit_povm(), u)
    assert code == 1
    assert "[symmetry]" in capsys.readouterr().err and not out.exists()


def test_squash_find_m0(m0_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["squash", "find", "--povm", str(m0_file), "--out", str(out)]) == 1
    report = read(out)
    assert report["verdict"] == "INFEASIBLE"
    assert report["witness"]["value"] == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_squash_find_ideal(ideal_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["squash", "find", "--povm", str(ideal_file), "--out", str(out)]) == 0
    assert read(out)["verdict"] == "FEASIBLE"


def test_squash_find_undecided_budget(ideal_file, tmp_path):
    out = tmp_path / "report.json"
    # the doubling is stationary after 2 steps, with a trace defect of about 2e-12 above tol
    code = main(
        ["squash", "find", "--povm", str(ideal_file), "--tol", "1e-14", "--out", str(out)]
    )
    assert code == 3
    assert read(out)["verdict"] == "UNDECIDED"


def test_squash_find_loose_tolerance_still_extracts_a_verified_map(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["squash", "find", "--sector", "2", "--tol", "1", "--out", str(out)]
    )
    assert code == 0
    report = read(out)
    assert report["verdict"] == "FEASIBLE"
    model = fock.build_detector(fock.fock_sector((2,)))
    found = squashmap.squash_from_json(report["squash"])
    assert squashmap.verify_squash(found, model.povm, tol=1e-6).passed


def test_squash_find_sector_shortcut(tmp_path):
    out = tmp_path / "report.json"
    assert main(["squash", "find", "--sector", "1", "--out", str(out)]) == 0


def test_nogo_symmetrize(m0_file, tmp_path):
    out = tmp_path / "tilde.json"
    assert main(
        ["nogo", "symmetrize", "--povm", str(m0_file), "--group", "c4", "--out", str(out)]
    ) == 0
    tilde = povm.povm_from_json(read(out))
    assert tilde.dim == 8
    assert povm.validate(tilde).passed


def test_nogo_pullback_roundtrip(tmp_path):
    base = tmp_path / "base.json"
    tilde = tmp_path / "tilde.json"
    report = tmp_path / "found.json"
    pulled = tmp_path / "pulled.json"
    det = tmp_path / "det.json"
    assert main(["detector", "--N", "1", "--out", str(det)]) == 0
    base.write_text(json.dumps(read(det)["povm"]))
    assert main(["nogo", "symmetrize", "--povm", str(base), "--group", "c4", "--out", str(tilde)]) == 0
    assert main(["squash", "find", "--povm", str(tilde), "--out", str(report)]) == 0
    code = main(
        ["nogo", "pullback", "--povm", str(base), "--group", "c4",
         "--squash", str(report), "--tol", "1e-6", "--out", str(pulled)]
    )
    assert code == 0
    loaded = squashmap.squash_from_json(read(pulled))
    base_povm = povm.povm_from_json(json.loads(base.read_text()))
    assert squashmap.verify_squash(loaded, base_povm, tol=1e-6).passed


def test_nogo_attack(m0_file, tmp_path):
    out = tmp_path / "attack.json"
    code = main(
        ["nogo", "attack", "--povm", str(m0_file), "--trials", "10000",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    report = read(out)
    assert report["qber"] == 0.0
    assert report["eve_accuracy"] == 1.0
    assert report["degenerate"] is False


def test_nogo_attack_zero_trials(m0_file, tmp_path):
    out = tmp_path / "attack.json"
    code = main(
        ["nogo", "attack", "--povm", str(m0_file), "--trials", "0", "--out", str(out)]
    )
    assert code == 0
    assert read(out)["degenerate"] is True


@pytest.mark.parametrize("flag, message", [
    (["--trials", "99999999999999999999"], "--trials must be between 0 and 100000000"),
    (["--trials", "100000001"], "--trials must be between 0 and 100000000"),
    (["--seed", "-1"], "--seed must be at least 0"),
])
def test_attack_trials_and_seed_are_range_checked_before_any_file_is_read(
    flag, message, monkeypatch, tmp_path, capsys
):
    def refuse(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_load_json", refuse)
    out = tmp_path / "out.json"
    argv = ["nogo", "attack", "--povm", tmp_path / "m0.json", *flag, "--out", out]
    assert run(tmp_path, *argv) == 2
    name, rule = message.split(" ", 1)  # argparse prints "argument --seed: must be ..."
    assert capsys.readouterr().err == f"squashkit: argument {name}: {rule}\n"
    assert not out.exists()


def test_attack_range_ends_are_accepted():
    parse = cli.build_parser().parse_args
    for trials, seed in ((cli.MAX_TRIALS, 0), (0, 2**80)):
        args = parse(["nogo", "attack", "--povm", "p.json", "--trials", str(trials),
                      "--seed", str(seed)])
        assert (args.trials, args.seed) == (trials, seed)


def test_parser_is_built_once_and_reused(m0_file):
    parser = cli.build_parser()
    misses = cli.build_parser.cache_info().misses
    assert main(["nogo", "m0", "--out", str(m0_file)]) == 0
    assert cli.build_parser() is parser
    assert cli.build_parser.cache_info().misses == misses


def test_parser_defaults_do_not_leak_between_calls(m0_file, tmp_path):
    parser = cli.build_parser()
    assert parser.parse_args(["nogo", "attack", "--povm", "p.json", "--trials", "5"]).trials == 5
    assert parser.parse_args(["nogo", "attack", "--povm", "p.json"]).trials == 10000
    out = tmp_path / "attack.json"
    for argv, trials in ((["--trials", "5"], 5), ([], 10000)):
        assert main(["nogo", "attack", "--povm", str(m0_file), *argv, "--out", str(out)]) == 0
        assert read(out)["trials"] == trials


def test_readme_command_lines_parse():
    # every documented command line must still be accepted by the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        for line in block.splitlines()
        if line.startswith("squashkit ")
    ]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except errors.SquashkitError as exc:
            pytest.fail(f"README command line does not parse: {line}: {exc}")


def test_readme_library_tour_runs():
    # the documented Python session must still run against the library as it is
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["report"].verdict == "INFEASIBLE"
    assert namespace["squash"].kraus.shape == (6, 2, 6)
    assert (namespace["attack"].qber, namespace["attack"].eve_accuracy) == (0.0, 1.0)


def test_public_names():
    # a name leaves or joins the library's surface only with this list; dir() also lists
    # the names that load on first access, and getattr loads them
    names = sorted(
        name for name in dir(squashkit)
        if not name.startswith("_") and not isinstance(getattr(squashkit, name), ModuleType)
    )
    assert names == [
        "AttackResult", "Bb84Povm", "BlochWitness", "C4Symmetry", "CheckReport", "DetectorModel",
        "FeasibilityReport", "FiniteGroup", "FockSector", "LabelAction",
        "MuDecomposition", "SquashMap", "SymmetrizedPovm",
        "bbm92_attack", "bloch_witness", "build_detector", "build_u_n", "canonical_c4_action",
        "check_definition1", "check_definition2", "complete_trace_preserving",
        "construct_theorem1", "counterexample_m0", "cyclic_group", "enumerate_sectors",
        "extract_rank2", "find_squash", "fock_sector", "ideal_qubit_povm",
        "kraus_core", "make_povm", "mu_decompose", "pullback_squash",
        "squash_from_kraus", "state_nrb", "symmetric_group_s3", "symmetrize",
        "unitary_from_generator", "validate", "verify_squash", "verify_trace_identity",
    ]


def test_error_classes():
    # one class per outcome of the exit-code contract, as the errors module docstring maps them
    names = sorted(name for name, value in vars(errors).items() if isinstance(value, type))
    assert names == ["ConstructionError", "SelfCheckFailed", "SquashkitError", "TildeNotVerified"]


def test_start_up_imports_stay_light():
    # each CLI run is a fresh process: records are named tuples, not dataclasses, and the
    # temp-file name comes from os.urandom, not secrets (which loads hashlib and OpenSSL)
    probe = (
        "import sys, squashkit.cli; "
        "print(sorted({'dataclasses', 'secrets', 'hashlib'} & set(sys.modules)))"
    )
    assert fresh_python(probe) == "[]\n"


#: Entry point -> the lazy modules loaded after it, each in a fresh interpreter so that no
#: earlier import hides what it loads; deciding a set loads none of them
ENTRY_POINTS = {
    "import squashkit\n"
    "from squashkit import finder\n"
    "p = squashkit.make_povm(squashkit.ideal_qubit_povm().elements)\n"
    "report = squashkit.find_squash(p)\n"
    "assert squashkit.verify_squash(report.squash, p).passed\n"
    "assert finder.report_to_json(report)['verdict'] == 'FEASIBLE'": [],
    "from squashkit import build_detector": ["fock"],
    "from squashkit import construct_theorem1": ["builder"],
    "from squashkit import symmetrize": ["nogo"],
    "import squashkit.nogo": ["nogo"],  # its Definition 2 check needs nothing of builder
    "import squashkit.cli": ["builder", "fock", "nogo"],
}


def test_fock_and_nogo_load_on_first_use_and_with_the_cli():
    for entry, expected in ENTRY_POINTS.items():
        probe = (
            f"import sys\n{entry}\n"
            "print(sorted(name for name in ('builder', 'fock', 'nogo')"
            " if f'squashkit.{name}' in sys.modules))\n"
        )
        assert (entry, fresh_python(probe)) == (entry, f"{expected}\n")


def test_names_that_load_on_first_use_are_the_modules_own():
    from squashkit import build_detector, construct_theorem1, cyclic_group, symmetrize

    assert squashkit.fock is fock and squashkit.nogo is nogo
    assert squashkit.builder is builder
    assert build_detector is fock.build_detector and symmetrize is nogo.symmetrize
    assert construct_theorem1 is builder.construct_theorem1
    assert cyclic_group is nogo.cyclic_group
    assert squashkit.DetectorModel is fock.DetectorModel
    assert squashkit.bbm92_attack is nogo.bbm92_attack
    assert squashkit.MuDecomposition is builder.MuDecomposition
    assert squashkit.C4Symmetry is fock.C4Symmetry
    assert squashkit.check_definition1 is builder.check_definition1
    assert squashkit.check_definition2 is nogo.check_definition2
    assert squashkit.SquashMap is squashmap.SquashMap is builder.SquashMap
    assert squashkit.verify_squash is squashmap.verify_squash is builder.verify_squash
    names = {"builder", "fock", "nogo", "construct_theorem1", "cyclic_group"}
    assert names | {"build_detector", "symmetrize"} <= set(dir(squashkit))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'build_detectors'"):
        squashkit.build_detectors
    assert not hasattr(squashkit, "cli_main")
    with pytest.raises(ImportError):
        from squashkit import no_such_name  # noqa: F401


def test_a_detector_pickled_here_loads_in_a_fresh_interpreter(tmp_path):
    model = fock.build_detector(fock.fock_sector((2, 1)))
    path = tmp_path / "model.pickle"
    path.write_bytes(pickle.dumps(model))
    probe = (  # unpickling alone imports squashkit.fock
        f"import pickle; model = pickle.loads(open({str(path)!r}, 'rb').read())\n"
        "import numpy as np, squashkit.fock as fock\n"
        "again = fock.build_detector(fock.fock_sector((2, 1)))\n"
        "same = all(np.array_equal(model.povm.elements[k], again.povm.elements[k])\n"
        "           for k in ('z0', 'z1', 'x0', 'x1'))\n"
        "writable = any(v.flags.writeable for v in model.states.values())\n"
        "print(type(model).__name__, model.sector.photons, model.povm.dim, same, writable)\n"
    )
    assert fresh_python(probe) == "DetectorModel (2, 1) 6 True False\n"


def test_missing_file_is_input_error(tmp_path):
    assert main(["squash", "find", "--povm", str(tmp_path / "nope.json")]) == 2


def test_outputs_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert main(["squash", "construct", "--sector", "2,1", "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_attack_byte_identical_with_seed(m0_file, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert main(
            ["nogo", "attack", "--povm", str(m0_file), "--trials", "500",
             "--seed", "3", "--out", str(out)]
        ) == 0
    assert first.read_bytes() == second.read_bytes()


def test_tolerance_comes_only_from_the_command_line(ideal_file, monkeypatch):
    monkeypatch.setenv("SQUASHKIT_TOL", "banana")  # no environment variable sets it
    assert main(["squash", "find", "--povm", str(ideal_file)]) == 0


def _reject_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["detector", "--N", "200"], 0),
        (["detector", "--N", "300"], 2),
        (["detector", "--N", "20,20"], 2),
        (["squash", "find", "--povm", "{big}"], 2),
        (["squash", "find", "--povm", "{deep}"], 2),
        (["squash", "find", "--povm", "{ideal}", "--tol", "inf"], 2),
        (["squash", "find", "--povm", "{ideal}", "--tol", "-1"], 2),
        (["nogo", "attack", "--povm", "{m0}", "--trials", "-5"], 2),
        (["nogo", "pullback", "--povm", "{ideal}", "--group", "c2", "--squash", "{nan_squash}"], 2),
        (["nogo", "pullback", "--povm", "{ideal}", "--group", "c2", "--squash", "{list}"], 2),
        (["nogo", "symmetrize", "--povm", "{m0}", "--group", "{c129}", "--action", "{trivial129}"], 2),
        *(
            (["nogo", submode, "--povm", "{ideal}", "--group", "c2", "--action", action, *squash], 2)
            for submode, squash in (
                ("symmetrize", []), ("pullback", ["--squash", "{ideal_c2_squash}"])
            )
            for action in ("{list_action}", "{string_action}")
        ),
    ],
)
def test_input_range_checks(argv, expected, request, tmp_path, capsys):
    names = {a[1:-1] for a in argv if a.startswith("{")}
    files = {name: request.getfixturevalue(f"{name}_file") for name in names}
    out = tmp_path / "out.json"
    argv = [a.format(**files) for a in argv] + ["--out", str(out)]
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if expected == 0:
        json.loads(out.read_text(), parse_constant=_reject_constant)
    else:
        assert err.startswith("squashkit: ") and not out.exists()


@pytest.mark.parametrize("submode", ["symmetrize", "pullback"])
def test_oversized_group_is_refused_before_its_table_is_validated(
    submode, ideal_file, monkeypatch, tmp_path, capsys
):
    group = tmp_path / "c200.json"
    group.write_text(json.dumps(nogo.group_to_json(nogo.cyclic_group(200))))
    action = tmp_path / "trivial200.json"
    action.write_text(json.dumps({"labels": ["z0", "x0", "z1", "x1"],
                                  "perms": [["z0", "x0", "z1", "x1"]] * 200}))

    def refuse(*args, **kwargs):
        raise AssertionError("the Cayley table was validated")

    monkeypatch.setattr(nogo, "make_group", refuse)
    out = tmp_path / "out.json"
    argv = ["nogo", submode, "--povm", str(ideal_file), "--group", str(group),
            "--action", str(action), "--out", str(out)]
    if submode == "pullback":
        argv += ["--squash", str(tmp_path / "absent.json")]
    assert main(argv) == 2
    assert "dimension 400, above the supported 256" in capsys.readouterr().err
    assert not out.exists()


def _record_decoded(monkeypatch) -> list:
    """The (rows, cols) of every block whose entries ``linalg._decode`` went on to return."""
    decoded, decode = [], linalg._decode

    def record(entries, rows, cols, shape_name):
        values = decode(entries, rows, cols, shape_name)
        decoded.append((rows, cols))
        return values

    monkeypatch.setattr(linalg, "_decode", record)
    return decoded


@pytest.mark.parametrize("declared", ["set", "element"])
def test_oversized_povm_is_refused_before_its_entries_are_decoded(
    declared, request, monkeypatch, tmp_path, capsys
):
    if declared == "set":
        path = request.getfixturevalue("big_file")
    else:  # only the elements' own dims are above the limit
        element = {"dim": 257, "entries": [[0.0, 0.0]]}
        path = tmp_path / "big_elements.json"
        path.write_text(json.dumps({"dim": 2, "elements": dict.fromkeys(povm.LABELS, element)}))
    decoded = _record_decoded(monkeypatch)
    out = tmp_path / "out.json"
    assert main(["squash", "find", "--povm", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "squashkit: dim 257 has a side above the supported 256\n"
    assert decoded == [] and not out.exists()


@pytest.mark.parametrize("kind", ["unitary", "in_dim", "kraus"])
def test_mismatched_unitary_or_squash_is_refused_before_its_entries_are_decoded(
    kind, ideal_file, monkeypatch, tmp_path, capsys
):
    # a side above the bound is refused where the file is decoded, before its fit to the set
    path = tmp_path / f"{kind}.json"
    if kind == "unitary":
        # json.dumps of the entries of np.eye(700) as [re, im] pairs, written as text
        cells = ["[0.0, 0.0]"] * 700**2
        cells[::701] = ["[1.0, 0.0]"] * 700
        path.write_text('{"dim": 700, "entries": [' + ", ".join(cells) + "]}")
        argv = ["squash", "construct", "--povm", ideal_file, "--unitary", path]
        shape = "dim 700"
    else:  # the qubit set symmetrized over C2 has dimension 4
        in_dim, rows_cols = (700, (2, 700)) if kind == "in_dim" else (4, (700, 4))
        op = {"rows": rows_cols[0], "cols": rows_cols[1],
              "entries": [[0.0, 0.0]] * (rows_cols[0] * rows_cols[1])}
        path.write_text(json.dumps({"in_dim": in_dim, "kraus": [op]}))
        argv = ["nogo", "pullback", "--povm", ideal_file, "--group", "c2", "--squash", path]
        shape = "%dx%d" % rows_cols
    decoded = _record_decoded(monkeypatch)
    out = tmp_path / "out.json"
    assert run(tmp_path, *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"squashkit: {shape} has a side above the supported 256\n"
    assert set(decoded) == {(2, 2)} and not out.exists()  # only the qubit set's elements


@pytest.mark.parametrize("kind, message", [
    ("unitary", "unitary dim 3 vs POVM dim 2"),
    ("in_dim", "map dim 5 vs POVM dim 4"),
    ("kraus", "Kraus operator shape (3, 4) vs expected (2, 4)"),
])
def test_a_unitary_or_map_that_does_not_fit_the_set_is_refused_by_its_engine(
    kind, message, ideal_file, tmp_path, capsys
):
    path = tmp_path / f"{kind}.json"
    if kind == "unitary":
        path.write_text(json.dumps(written(linalg.matrix_to_json(np.eye(3)))))
        argv = ["squash", "construct", "--povm", ideal_file, "--unitary", path]
    else:  # the qubit set symmetrized over C2 has dimension 4
        if kind == "in_dim":  # |0><k| for k < 5: a trace-preserving map from dimension 5
            kraus = [np.outer([1.0, 0.0], e) for e in np.eye(5)]
        else:
            kraus = [np.zeros((3, 4))]
        blob = {"in_dim": 5 if kind == "in_dim" else 4,
                "kraus": [written(linalg.matrix_rect_to_json(k)) for k in kraus]}
        path.write_text(json.dumps(blob))
        argv = ["nogo", "pullback", "--povm", ideal_file, "--group", "c2", "--squash", path]
    out = tmp_path / "out.json"
    assert run(tmp_path, *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"squashkit: {message}\n"
    assert not out.exists()


def test_a_builtin_group_is_validated_once(ideal_file, monkeypatch, tmp_path):
    tables, make_group = [], nogo.make_group

    def count(cayley, identity=None):
        tables.append(cayley)
        return make_group(cayley, identity)

    monkeypatch.setattr(nogo, "make_group", count)
    out = tmp_path / "tilde.json"
    assert run(tmp_path, "nogo", "symmetrize", "--povm", ideal_file, "--group", "c4",
               "--out", out) == 0
    assert len(tables) == 1 and read(out)["dim"] == 8


@pytest.mark.parametrize("command, calls", [
    ("detector --N 2,1", 1),  # the detector's self-check
    ("squash construct --sector 2,1", 1),
    ("squash construct --povm {ideal} --unitary {qubit_unitary}", 1),  # the loader, at --tol
    ("squash find --sector 2,1", 1),
    ("squash find --povm {ideal}", 1),
    ("nogo m0", 0),
    ("nogo attack --povm {ideal} --trials 10", 1),
    ("nogo symmetrize --povm {ideal} --group c4", 1),
    ("nogo pullback --povm {ideal} --group c2 --squash {ideal_c2_squash}", 1),
])
def test_each_set_is_validated_once_where_it_is_read_or_built(
    command, calls, request, monkeypatch, tmp_path
):
    files = {name: request.getfixturevalue(f"{name}_file")
             for name in ("ideal", "qubit_unitary", "ideal_c2_squash")}
    seen, validate = [], povm.validate
    monkeypatch.setattr(povm, "validate", lambda *a: seen.append(a) or validate(*a))
    assert run(tmp_path, *command.format(**files).split(), "--out", tmp_path / "out.json") == 0
    assert len(seen) == calls


@pytest.mark.parametrize("source", [
    ("squash find --sector 2 --unitary {u}", "unrecognized arguments: --unitary "),
    ("squash find --povm {povm} --unitary {u}", "unrecognized arguments: --unitary "),
    ("squash construct --sector 1 --povm {povm}", "--povm: not allowed with argument --sector"),
    ("squash construct --sector 1 --unitary {u}", "construct takes --unitary with --povm, and none"),
    ("squash find --sector 1 --povm {povm}", "--povm: not allowed with argument --sector"),
    ("squash construct --povm {povm}", "construct takes --unitary with --povm, and none"),
    ("squash find", "one of the arguments --sector --povm is required"),
    ("nogo m0 --povm {povm}", "unrecognized arguments: --povm "),
    ("nogo attack --povm {povm} --group c2", "unrecognized arguments: --group c2"),
    ("nogo symmetrize --povm {povm} --squash {squash}", "unrecognized arguments: --squash "),
    ("nogo symmetrize --povm {povm} --trials 5", "unrecognized arguments: --trials 5"),
    ("detector --N 1 --tol 1e-9", "unrecognized arguments: --tol 1e-9"),
    ("detector --sweep-max 2", "a sweep needs --out"),
    ("nogo attack", "the following arguments are required: --povm"),
    ("nogo symmetrize --group c2", "the following arguments are required: --povm"),
    ("nogo pullback --squash {squash}", "the following arguments are required: --povm"),
    ("nogo pullback --povm {povm}", "the following arguments are required: --squash"),
])
def test_squash_find_refuses_unitary_before_reading_any_file(
    source, monkeypatch, tmp_path, capsys
):
    # every mode: a flag it does not take, a missing file flag, or a pair of flags that
    # contradict each other is refused in one line before any file is read
    def refuse(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_load_json", refuse)
    args, message = source
    files = {name: tmp_path / f"{name}.json" for name in ("povm", "u", "squash")}
    argv = [a.format(**files) for a in args.split()]
    out = tmp_path / "out.json"
    if argv[0] != "detector":  # a sweep's --out is what the case leaves out
        argv += ["--out", out]
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("squashkit: ") and message in err and err.count("\n") == 1
    assert not out.exists()


#: One command line of each mode, without --out.
EACH_MODE = [
    ["detector", "--N", "1"],
    ["detector", "--sweep-max", "1"],
    ["squash", "construct", "--sector", "1"],
    ["squash", "find", "--sector", "1"],
    ["nogo", "m0"],
    ["nogo", "attack", "--povm", "{ideal}"],
    ["nogo", "symmetrize", "--povm", "{ideal}", "--group", "c2"],
    ["nogo", "pullback", "--povm", "{ideal}", "--group", "c2", "--squash", "{ideal_c2_squash}"],
]


@pytest.mark.parametrize("argv", EACH_MODE)
def test_an_empty_out_path_is_a_usage_error(argv, ideal_file, ideal_c2_squash_file,
                                            monkeypatch, tmp_path, capsys):
    # "" names no file: it is refused before any work, and nothing is written beside
    # the working directory, where the parent of "" would put the temporary file
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    before = sorted(tmp_path.iterdir())
    files = {"ideal": ideal_file, "ideal_c2_squash": ideal_c2_squash_file}
    assert run(tmp_path, *[a.format(**files) for a in argv], "--out", "") == 2
    assert capsys.readouterr().err == "squashkit: argument --out: must not be empty\n"
    assert sorted(tmp_path.iterdir()) == before and not any(work.iterdir())


@pytest.mark.parametrize("spelling", ["sub", "sub/"])
@pytest.mark.parametrize("argv", EACH_MODE)
def test_an_out_path_that_is_a_directory_is_refused_by_its_name(
    argv, spelling, ideal_file, ideal_c2_squash_file, monkeypatch, tmp_path, capsys
):
    # a single output cannot replace the directory sub, nor be written as sub/; a sweep
    # writes into sub, and is refused where its first file is a directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    target = spelling
    if "--sweep-max" in argv:
        target = os.path.join(spelling, "detector_N1.json")
        (tmp_path / target).mkdir()
    before = sorted(tmp_path.rglob("*"))
    files = {"ideal": ideal_file, "ideal_c2_squash": ideal_c2_squash_file}
    assert run(tmp_path, *[a.format(**files) for a in argv], "--out", spelling) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"squashkit: argument --out: cannot write {target!r}: ")
    assert err.count("\n") == 1 and ".tmp" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("verdict", ["INFEASIBLE", "UNDECIDED", "FEASIBLE\nsquashkit: done"])
def test_pullback_of_a_report_without_a_map_says_so(verdict, m0_file, tmp_path, capsys):
    tilde, report, out = tmp_path / "tilde.json", tmp_path / "report.json", tmp_path / "out.json"
    assert run(tmp_path, "nogo", "symmetrize", "--povm", m0_file, "--group", "c2",
               "--out", tilde) == 0
    assert run(tmp_path, "squash", "find", "--povm", tilde, "--out", report) == 1
    blob = read(report)
    assert blob["verdict"] == "INFEASIBLE" and blob["squash"] is None
    blob["verdict"] = verdict  # an undecided search writes "squash": null as well
    report.write_text(json.dumps(blob))
    argv = ["nogo", "pullback", "--povm", m0_file, "--group", "c2", "--squash", report]
    assert run(tmp_path, *argv, "--out", out) == 2
    err = capsys.readouterr().err
    # the verdict is quoted, so a newline in it cannot start a second line of the message
    assert f"holds no squash map (finder verdict {verdict!r})" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("group", ["c2", "c4"])
def test_nogo_symmetrize_loads_a_set_valid_only_at_the_tolerance_in_force(
    group, near_file, tmp_path
):
    # the symmetrized set's completeness residual is up to sqrt(|G|) times the base's
    out = tmp_path / "tilde.json"
    argv = ["nogo", "symmetrize", "--povm", near_file, "--group", group, "--tol", "1e-8"]
    assert run(tmp_path, *argv, "--out", out) == 0
    assert povm.povm_from_json(read(out)).dim == 2 * int(group[1:])


def test_nogo_symmetrize_refuses_an_action_that_splits_a_basis_pair(ideal_file, tmp_path, capsys):
    action = tmp_path / "split.json"
    split = [["z0", "x0", "z1", "x1"], ["z0", "z1", "x0", "x1"]]  # swaps x0 and z1
    action.write_text(json.dumps({"labels": ["z0", "x0", "z1", "x1"], "perms": split}))
    out = tmp_path / "out.json"
    argv = ["nogo", "symmetrize", "--povm", ideal_file, "--group", "c2", "--action", action]
    assert run(tmp_path, *argv, "--out", out) == 2
    assert "basis pair" in capsys.readouterr().err and not out.exists()


def test_nogo_symmetrize_by_s3_needs_an_action(ideal_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = ["nogo", "symmetrize", "--povm", ideal_file, "--group", "s3", "--out", out]
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err == (
        "squashkit: no default label action for group 's3'; pass --action\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        # find and pullback default to 1e-8; the near set's witness 1 + 5e-9 is above one
        (["squash", "find", "--povm", "{near}"], 1),
        (["nogo", "pullback", "--povm", "{near}", "--group", "c2", "--squash", "{ideal_c2_squash}"],
         0),
        # construct, symmetrize and attack default to 1e-9
        (["squash", "construct", "--povm", "{near}", "--unitary", "{qubit_unitary}"], 2),
        (["nogo", "symmetrize", "--povm", "{near}", "--group", "c2"], 2),
        (["nogo", "attack", "--povm", "{near}"], 2),
        # sets valid at 1e-9 whose z pair carries opposite anti-Hermitian parts SKEW: the
        # engines read only the Hermitian part of each difference, so both squash them
        (["squash", "find", "--povm", "{skew_qubit}"], 0),
        (["squash", "construct", "--povm", "{skew_detector}", "--unitary", "{detector_unitary}"],
         0),
    ],
)
def test_default_tolerance_of_each_command(argv, expected, request, tmp_path, capsys):
    names = {a[1:-1] for a in argv if a.startswith("{")}
    files = {name: request.getfixturevalue(f"{name}_file") for name in names}
    out = tmp_path / "out.json"
    assert main([a.format(**files) for a in argv] + ["--out", str(out)]) == expected
    err = capsys.readouterr().err
    if expected == 2:
        assert "is not a valid measurement set at tol=1e-09" in err and not out.exists()
    else:
        assert err == "" and out.exists()


@pytest.mark.parametrize("kind", ["povm", "group"])
def test_huge_integer_in_an_input_file_is_an_input_error(kind, ideal_file, tmp_path, capsys):
    # 10**400 fits neither a float nor a C long
    path = tmp_path / f"huge_{kind}.json"
    if kind == "povm":
        blob = written(povm.povm_to_json(povm.ideal_qubit_povm()))
        blob["elements"]["z0"]["entries"][0] = [10**400, 0.0]
        argv = ["squash", "find", "--povm", path]
    else:
        blob = nogo.group_to_json(nogo.cyclic_group(2))
        blob["cayley"][0][1] = 10**400
        argv = ["nogo", "symmetrize", "--povm", ideal_file, "--group", path]
    path.write_text(json.dumps(blob))
    out = tmp_path / "out.json"
    assert run(tmp_path, *argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("squashkit: ") and err.count("\n") == 1 and "too large" in err
    assert not out.exists()


@pytest.mark.parametrize("kind, field, value", [
    ("group", "cayley", [[0.4, 1.6], [1.2, 0.3]]),
    ("group", "cayley", [[False, True], [True, False]]),
    ("group", "cayley", [[0, True], [True, 0]]),
    ("group", "identity", 0.9),
    ("group", "identity", False),
    ("group", "order", "2"),
    ("povm", "dim", 2.9),
    ("element", "dim", "2"),
    ("element", "dim", 2.0),
    ("unitary", "dim", 2.5),
    ("squash", "in_dim", 4.0),
    ("kraus", "rows", "2"),
    ("kraus", "cols", 4.7),
])
def test_non_integer_integer_fields_are_refused(
    kind, field, value, ideal_file, qubit_unitary_file, ideal_c2_squash_file, tmp_path, capsys
):
    # each of these decodes as a valid input if the field is truncated or coerced to int
    path = tmp_path / f"{kind}.json"
    if kind == "group":
        blob = {**nogo.group_to_json(nogo.cyclic_group(2)), field: value}
        action = tmp_path / "swap.json"
        action.write_text(json.dumps({"labels": ["z0", "x0", "z1", "x1"],
                                      "perms": [["z0", "x0", "z1", "x1"],
                                                ["x0", "z0", "x1", "z1"]]}))
        argv = ["nogo", "symmetrize", "--povm", ideal_file, "--group", path, "--action", action]
    elif kind in ("povm", "element"):
        blob = written(povm.povm_to_json(povm.ideal_qubit_povm()))
        (blob if kind == "povm" else blob["elements"]["x1"])[field] = value
        argv = ["squash", "find", "--povm", path]
    elif kind == "unitary":
        blob = {**read(qubit_unitary_file), field: value}
        argv = ["squash", "construct", "--povm", ideal_file, "--unitary", path]
    else:
        blob = read(ideal_c2_squash_file)
        (blob if kind == "squash" else blob["kraus"][-1])[field] = value
        argv = ["nogo", "pullback", "--povm", ideal_file, "--group", "c2", "--squash", path]
    path.write_text(json.dumps(blob))
    out = tmp_path / "out.json"
    assert run(tmp_path, *argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("squashkit: ") and err.count("\n") == 1 and "integer" in err
    assert not out.exists()


SWAP_PERMS = [["z0", "x0", "z1", "x1"], ["x0", "z0", "x1", "z1"]]


@pytest.mark.parametrize("kind, field, value, message", [
    ("group", "order", 3, "declared order disagrees with the Cayley table"),
    ("povm", "dim", 3, "declared dim disagrees with element matrices"),
    ("group", "cayley", [[0, 1], [1]], "Cayley entries must be rows of equal length"),
    ("action", "perms", [SWAP_PERMS[0], SWAP_PERMS[1][:3]],
     "label images must be rows of equal length"),
], ids=["order", "dim", "ragged-cayley", "ragged-perms"])
def test_a_file_that_disagrees_with_itself_is_refused(
    kind, field, value, message, ideal_file, tmp_path, capsys
):
    # each file is well formed, but a declared size disagrees with its table or matrices,
    # or one row's length with another's
    blobs = {
        "group": nogo.group_to_json(nogo.cyclic_group(2)),
        "action": {"labels": ["z0", "x0", "z1", "x1"], "perms": SWAP_PERMS},
        "povm": read(ideal_file),
    }
    blobs[kind][field] = value
    for name, blob in blobs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(blob))
    argv = ["nogo", "symmetrize", "--povm", tmp_path / "povm.json",
            "--group", tmp_path / "group.json", "--action", tmp_path / "action.json"]
    out = tmp_path / "out.json"
    assert run(tmp_path, *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"squashkit: {message}\n"
    assert not out.exists()


#: Marks a field that a case deletes instead of setting.
DROP = object()


@pytest.mark.parametrize("kind, path, value, message", [
    ("group", ("order",), DROP, "missing field 'order'"),
    ("group", ("cayley",), DROP, "missing field 'cayley'"),
    ("group", ("cayley", 0, 1), None, "Cayley entries must be integers"),
    ("povm", ("elements",), DROP, "missing field 'elements'"),
    ("povm", ("elements", "x1"), DROP, "missing field 'x1'"),
    ("povm", ("elements", "z1", "entries"), DROP, "missing field 'entries'"),
    ("action", ("perms",), DROP, "missing field 'perms'"),
    ("action", ("perms", 1, 2), "z2", "unknown label 'z2'"),
    ("squash", ("kraus",), DROP, "missing field 'kraus'"),
    ("squash", ("kraus", 0, "cols"), DROP, "missing field 'cols'"),
], ids=["order", "cayley", "cayley-null", "elements", "x1", "entries", "perms", "label-z2",
        "kraus", "cols"])
def test_a_missing_field_or_entry_is_named(
    kind, path, value, message, ideal_file, ideal_c2_squash_file, tmp_path, capsys
):
    blobs = {
        "group": nogo.group_to_json(nogo.cyclic_group(2)),
        "action": {"labels": ["z0", "x0", "z1", "x1"], "perms": [list(r) for r in SWAP_PERMS]},
        "povm": read(ideal_file),
        "squash": read(ideal_c2_squash_file),
    }
    *parents, last = path
    target = blobs[kind]
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    argv = ["nogo", "pullback"]
    for name, blob in blobs.items():  # as they are, these four files pull back with exit 0
        (tmp_path / f"{name}.json").write_text(json.dumps(blob))
        argv += [f"--{name}", tmp_path / f"{name}.json"]
    out = tmp_path / "out.json"
    assert run(tmp_path, *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"squashkit: {message}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """A directory, and for each file kind a valid file's JSON and the command that reads it."""
    root = tmp_path_factory.mktemp("mutations")
    ideal, swap = root / "ideal.json", root / "swap.json"
    ideal.write_text(json.dumps(written(povm.povm_to_json(povm.ideal_qubit_povm()))))
    swap.write_text(json.dumps({"labels": list(povm.LABELS), "perms": SWAP_PERMS}))
    s = nogo.symmetrize(povm.ideal_qubit_povm(), nogo.cyclic_group(2),
                        nogo.c2_basis_swap_action())
    quarter_turn = linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)
    return root, {
        "povm": (written(povm.povm_to_json(povm.ideal_qubit_povm())), ["squash", "find"]),
        "unitary": (written(linalg.matrix_to_json(quarter_turn)),
                    ["squash", "construct", "--povm", ideal]),
        "group": (nogo.group_to_json(nogo.cyclic_group(2)),
                  ["nogo", "symmetrize", "--povm", ideal, "--action", swap]),
        "action": ({"labels": list(povm.LABELS), "perms": SWAP_PERMS},
                   ["nogo", "symmetrize", "--povm", ideal, "--group", "c2"]),
        "squash": (written(squashmap.squash_to_json(finder.find_squash(s.tilde).squash)),
                   ["nogo", "pullback", "--povm", ideal, "--group", "c2"]),
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_single_field_mutation_keeps_the_exit_code_contract(data, mutation_inputs):
    # one value of a valid file, the whole file included, replaced or deleted
    root, inputs = mutation_inputs
    kind = data.draw(st.sampled_from(sorted(inputs)))
    blob, argv = inputs[kind]
    path = data.draw(st.sampled_from(json_paths(blob)))
    source, out = root / f"{kind}.json", root / "out.json"
    source.write_text(mutation_text(blob, path, data.draw(st.sampled_from(MUTATIONS))))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in (*argv, f"--{kind}", source, "--out", out)])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("squashkit: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue() and not out.exists()


def test_a_program_fault_in_an_engine_is_not_an_input_error(ideal_file, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a fault in the finder")

    monkeypatch.setattr(finder, "find_squash", broken)
    with pytest.raises(TypeError, match="a fault in the finder"):
        main(["squash", "find", "--povm", str(ideal_file)])


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"dim": 1' + b"0" * 5000 + b"}"],
                         ids=["not-utf-8", "int-of-5001-digits"])
def test_a_file_that_is_no_readable_json_text_is_named(text, tmp_path, capsys):
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_bytes(text)
    assert run(tmp_path, "squash", "find", "--povm", path, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"squashkit: {path} is not JSON text that can be read: ")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["nogo", "symmetrize", "--povm", "{huge_x}", "--group", "c2"], "not a valid measurement set"),
    (["nogo", "attack", "--povm", "{huge_x}"], "not a valid measurement set"),
    (["squash", "find", "--povm", "{huge_x}"], "not a valid measurement set"),
    (["squash", "construct", "--povm", "{ideal}", "--unitary", "{huge_u}"], "U is not unitary"),
], ids=["symmetrize", "attack", "find", "construct"])
def test_entries_near_the_float_limit_are_refused(argv, message, ideal_file, tmp_path, capsys):
    # the x elements' Hermitian part, and U+ U, overflow; both files were accepted before
    z0, z1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x0, x1 = np.array([[0.5, 1e308], [1e308, 0.5]]), np.array([[0.5, -1e308], [-1e308, 0.5]])
    files = {"ideal": ideal_file, "huge_x": tmp_path / "huge_x.json",
             "huge_u": tmp_path / "huge_u.json"}
    files["huge_x"].write_text(json.dumps(written(povm.povm_to_json(
        povm.make_povm({"z0": z0, "z1": z1, "x0": x0, "x1": x1})))))
    files["huge_u"].write_text(json.dumps(written(linalg.matrix_to_json([[1e200, 1e200],
                                                                         [1e200, -1e200]]))))
    out = tmp_path / "out.json"
    assert run(tmp_path, *(a.format(**files) for a in argv), "--out", out) == 2
    assert message in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("kind", ["povm", "unitary", "squash"])
def test_boolean_matrix_entries_are_refused(
    kind, ideal_file, qubit_unitary_file, ideal_c2_squash_file, tmp_path, capsys
):
    # true and false would decode as 1 and 0, which leaves each of these files a valid input
    path = tmp_path / f"{kind}.json"
    if kind == "povm":
        blob = read(ideal_file)
        blob["elements"]["z0"]["entries"][0] = [True, False]
        argv = ["squash", "find", "--povm", path]
    else:
        source = qubit_unitary_file if kind == "unitary" else ideal_c2_squash_file
        blob = read(source)
        entries = blob["entries"] if kind == "unitary" else blob["kraus"][0]["entries"]
        next(entry for entry in entries if entry[1] == 0.0)[1] = False
        argv = (["squash", "construct", "--povm", ideal_file, "--unitary", path]
                if kind == "unitary" else
                ["nogo", "pullback", "--povm", ideal_file, "--group", "c2", "--squash", path])
    path.write_text(json.dumps(blob))
    out = tmp_path / "out.json"
    assert run(tmp_path, *argv, "--out", out) == 2
    assert capsys.readouterr().err == "squashkit: matrix entries must be numbers, not booleans\n"
    assert not out.exists()


def _library_outputs(m0_file, ideal_file, tmp_path):
    """Each case: a command line, and a thunk for the library object its output encodes."""
    m0, ideal = nogo.counterexample_m0(), povm.ideal_qubit_povm()
    model = fock.build_detector(fock.fock_sector((2, 1)))
    base = fock.build_detector(fock.fock_sector((1,))).povm
    symmetrized = nogo.symmetrize(base, nogo.cyclic_group(2), nogo.c2_basis_swap_action())
    found = written(finder.report_to_json(finder.find_squash(symmetrized.tilde)))
    base_file, found_file = tmp_path / "base.json", tmp_path / "found.json"
    base_file.write_text(json.dumps(written(povm.povm_to_json(base))))
    found_file.write_text(json.dumps(found))
    return {
        "detector": (["detector", "--N", "2,1"], lambda: fock.detector_to_json(model)),
        "construct": (
            ["squash", "construct", "--sector", "2,1"],
            lambda: squashmap.squash_to_json(
                builder.construct_theorem1(model.povm, model.symmetry, 1e-9)
            ),
        ),
        "feasible": (
            ["squash", "find", "--povm", ideal_file],
            lambda: finder.report_to_json(finder.find_squash(ideal)),
        ),
        "infeasible": (
            ["squash", "find", "--povm", m0_file],
            lambda: finder.report_to_json(finder.find_squash(m0)),
        ),
        "m0": (["nogo", "m0"], lambda: povm.povm_to_json(m0)),
        "attack": (
            ["nogo", "attack", "--povm", m0_file, "--trials", "500", "--seed", "3"],
            lambda: nogo.attack_to_json(nogo.bbm92_attack(m0, trials=500, seed=3)),
        ),
        "symmetrize": (
            ["nogo", "symmetrize", "--povm", base_file, "--group", "c2"],
            lambda: povm.povm_to_json(symmetrized.tilde),
        ),
        "pullback": (
            ["nogo", "pullback", "--povm", base_file, "--group", "c2", "--squash", found_file,
             "--tol", "1e-6"],
            lambda: squashmap.squash_to_json(
                nogo.pullback_squash(symmetrized, squashmap.squash_from_json(found["squash"]), 1e-6)
            ),
        ),
    }


GOLDEN = ["detector", "construct", "feasible", "infeasible", "m0", "attack", "symmetrize",
          "pullback"]


@pytest.mark.parametrize("case", GOLDEN)
def test_output_bytes_are_json_dumps_of_the_library_object(
    case, m0_file, ideal_file, tmp_path, capsys
):
    argv, library_object = _library_outputs(m0_file, ideal_file, tmp_path)[case]
    expected = json.dumps(plain(library_object()), indent=2, sort_keys=True) + "\n"
    out = tmp_path / "out.json"
    code = run(tmp_path, *argv, "--out", out)
    assert code == (1 if case == "infeasible" else 0)
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()
    assert run(tmp_path, *argv) == code
    assert capsys.readouterr().out == expected


def _awkward_text(max_size=6):
    """Short strings rich in JSON punctuation, escapes and non-ASCII characters."""
    return st.text(st.one_of(st.sampled_from('[],"\\: \n\t'), st.sampled_from("éλ→€😀\x7f"),
                             st.characters()), max_size=max_size)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300]),
)
NUMBERS = st.one_of(FINITE, st.integers())
PAIRS = st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=4)
# rows that are no [number, number] pair: wrong length, or a non-number inside
ODD_ROWS = st.one_of(
    st.lists(NUMBERS, max_size=1),
    st.lists(NUMBERS, min_size=3, max_size=3),
    st.tuples(NUMBERS, st.one_of(_awkward_text(), st.booleans(), st.none())).map(list),
    st.tuples(st.lists(NUMBERS, max_size=2), NUMBERS).map(list),
    st.tuples(NUMBERS, st.dictionaries(_awkward_text(), NUMBERS, max_size=1)).map(list),
)
NEAR_MISSES = st.builds(lambda rows, odd, i: rows[:i] + [odd] + rows[i:], PAIRS, ODD_ROWS,
                        st.integers(0, 4))
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), _awkward_text())
TREES = st.recursive(
    st.one_of(SCALARS, PAIRS, NEAR_MISSES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_awkward_text(), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(obj=TREES)
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def plain(tree):
    """``tree`` with each complex array as the list of its [re, im] pairs, as json.dumps takes it."""
    if isinstance(tree, np.ndarray):
        return [[float(z.real), float(z.imag)] for z in tree]
    if isinstance(tree, dict):
        return {key: plain(value) for key, value in tree.items()}
    return [plain(item) for item in tree] if isinstance(tree, (list, tuple)) else tree


PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals and the zeros
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e22, 1.0, -3.0, 2.0**53, 1e15]),
)
ARRAYS = st.lists(st.builds(complex, PARTS, PARTS), min_size=1, max_size=9).map(np.array)
# leaves and nesting as the *_to_json functions build them: a vector, a square or rectangular
# matrix record, and objects and lists of these
RECORDS = st.recursive(
    st.one_of(
        ARRAYS,
        ARRAYS.map(lambda a: {"dim": len(a), "entries": a}),
        st.builds(lambda a, rows: {"rows": rows, "cols": len(a), "entries": a},
                  ARRAYS, st.integers(1, 4)),
    ),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3),
        st.dictionaries(st.sampled_from(["elements", "kraus", "povm", "states", "U_N", "x1"]),
                        st.one_of(children, SCALARS), min_size=1, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(tree=RECORDS)
def test_json_writer_writes_arrays_as_json_dumps_of_their_pairs(tree):
    text = json.dumps(plain(tree), indent=2, sort_keys=True, allow_nan=False)
    assert cli._json_text(tree) == text


NON_FINITE_HOMES = {
    "pair list": lambda bad, rows: {"entries": rows + [[0.0, bad]]},
    "array, real part": lambda bad, rows: {"entries": np.array([0j] * len(rows) + [bad])},
    "array, imaginary part": lambda bad, rows: [np.array([complex(0.0, bad)] + [1j] * len(rows))],
    "near miss": lambda bad, rows: [rows, [[bad, 0.0, 1.0]]],
    "scalar": lambda bad, rows: {"rows": rows, "value": [bad]},
}


@settings(max_examples=60, deadline=None)
@given(
    home=st.sampled_from(sorted(NON_FINITE_HOMES)),
    bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    rows=PAIRS,
)
def test_json_writer_rejects_non_finite_numbers(home, bad, rows):
    obj = NON_FINITE_HOMES[home](bad, rows)
    with pytest.raises(ValueError):
        cli._json_text(obj)
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(ValueError):
            cli._write_json(obj, os.path.join(tmp, "out.json"))
        assert os.listdir(tmp) == []


@pytest.mark.parametrize("key", [1, 1.5, float("nan"), float("inf"), True, None])
def test_json_writer_refuses_a_key_that_is_not_a_string(key, tmp_path):
    # no *_to_json tree has one; json.dumps would write the key 1 as "1"
    with pytest.raises(TypeError):
        cli._json_text({key: 0})
    with pytest.raises(TypeError):
        cli._write_json({"rows": [{key: 0}]}, str(tmp_path / "out.json"))
    assert os.listdir(tmp_path) == []


def test_out_file_mode_follows_umask(tmp_path):
    out = tmp_path / "det.json"
    old = os.umask(0o022)
    try:
        assert main(["detector", "--N", "1", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["det.json"]


def test_self_check_failure_is_a_one_line_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(finder, "verify_squash", lambda *a, **k: SimpleNamespace(passed=False))
    out = tmp_path / "report.json"
    assert main(["squash", "find", "--sector", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("squashkit: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


def _argv(*parts):
    """Argument-vector strategy: a str is one fixed argument, a strategy draws a list of them."""
    drawn = st.tuples(*(st.just([p]) if isinstance(p, str) else p for p in parts))
    return drawn.map(lambda lists: [a for part in lists for a in part])


def _flag(flag, values):
    """``flag`` with a drawn value."""
    return values.map(lambda value: [flag, value])


def _maybe(*choices):
    """Nothing, or one of the given argument lists."""
    return st.sampled_from([[], *choices])


def _ints(low, high):
    return st.integers(low, high).map(str)


SECTORS = st.one_of(
    st.lists(st.sampled_from(["-1", "0", "1", "2", "300"]), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["two", "", "1,,2", "20,20"]),
)
TOL = st.one_of(
    st.just([]),
    _flag("--tol", st.sampled_from(["1e-9", "1e-6", "1e-14", "1", "0", "-1", "nan", "inf", "abc"])),
)
POVM = _maybe(["--povm", "{m0}"], ["--povm", "{ideal}"])
SYMMETRIZATION = (
    POVM, _maybe(*(["--group", g] for g in ("c2", "c4", "s3"))), _maybe(["--action", "{action}"])
)
MODES = st.one_of(
    # in-range bounds 3..8 write up to 216 files each and are left out for time
    _argv("detector", st.one_of(_flag("--N", SECTORS),
                                _flag("--sweep-max", st.sampled_from(["-1", "0", "1", "2", "9"])))),
    _argv("squash", "construct", st.one_of(_flag("--sector", SECTORS), POVM),
          _maybe(["--unitary", "{unitary}"]), TOL),
    _argv("squash", "find", st.one_of(_flag("--sector", SECTORS), POVM), TOL),
    _argv("nogo", "m0"),
    _argv("nogo", "attack", POVM, _flag("--trials", _ints(-5, 3000)), _flag("--seed", _ints(-2, 9)),
          TOL),
    _argv("nogo", "symmetrize", *SYMMETRIZATION, TOL),
    _argv("nogo", "pullback", *SYMMETRIZATION, _maybe(["--squash", "{squash}"]), TOL),
)
# one flag any mode takes, which the drawn mode may not
FOREIGN = _maybe(
    ["--N", "1"], ["--sweep-max", "2"], ["--sector", "1"], ["--povm", "{ideal}"],
    ["--unitary", "{unitary}"], ["--tol", "1e-9"], ["--trials", "5"], ["--seed", "1"],
    ["--group", "c2"], ["--action", "{action}"], ["--squash", "{squash}"],
)


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """A file for each placeholder of the drawn argument vectors."""
    root = tmp_path_factory.mktemp("contract")
    ideal = povm.ideal_qubit_povm()
    s = nogo.symmetrize(ideal, nogo.cyclic_group(2), nogo.c2_basis_swap_action())
    blobs = {
        "m0": povm.povm_to_json(nogo.counterexample_m0()),
        "ideal": povm.povm_to_json(ideal),
        "unitary": linalg.matrix_to_json(linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)),
        "action": {"labels": list(povm.LABELS), "perms": SWAP_PERMS},
        "squash": squashmap.squash_to_json(finder.find_squash(s.tilde).squash),
    }
    for name, blob in blobs.items():
        (root / f"{name}.json").write_text(json.dumps(written(blob)))
    return {name: str(root / f"{name}.json") for name in blobs}


def _strict_json_files(path):
    """Parse ``path``, or every file in it when it is a directory, as strict JSON."""
    paths = [os.path.join(path, n) for n in os.listdir(path)] if os.path.isdir(path) else [path]
    for name in paths:
        with open(name) as handle:
            json.load(handle, parse_constant=_reject_constant)
    return paths


@settings(max_examples=80, deadline=None)
@given(mode=MODES, foreign=FOREIGN)
def test_cli_exit_contract_holds_for_drawn_arguments(mode, foreign, contract_files):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [a.format(**contract_files) for a in mode + foreign] + ["--out", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("squashkit: ") and err.getvalue().count("\n") == 1
        if code == 0:
            assert _strict_json_files(out)


#: The one-line refusal of a negative value, by the flag that takes it.
NEGATIVE_VALUE_REFUSALS = {
    "--N": "photon counts must be nonnegative",
    "--sector": "photon counts must be nonnegative",
    "--tol": "argument --tol: must be positive and finite",
    "--seed": "argument --seed: invalid int value: '-1e3'",
}


@pytest.mark.parametrize("argv", [
    ["detector", "--N", "-1,2"], ["detector", "--N=-1,2"], ["detector", "--N", "-3"],
    ["squash", "find", "--sector", "-1,2"], ["squash", "find", "--sector=-1,2"],
    ["squash", "construct", "--sector", "2,-1"],
    *(["squash", "find", "--sector", "1", *tol]
      for value in ("-1e-3", "-inf", "-NaN") for tol in (["--tol", value], [f"--tol={value}"])),
    ["nogo", "attack", "--povm", "p.json", "--seed", "-1e3"],
    ["nogo", "attack", "--povm", "p.json", "--seed=-1e3"],
])
def test_negative_photon_counts_are_refused_in_either_spelling(argv, tmp_path, capsys):
    # a leading minus must not read a value as a flag: "-1,2", "-1e-3" and "-inf" are values,
    # refused by the sector parser or the range check whichever way they are spelled
    out = tmp_path / "out.json"
    assert run(tmp_path, *argv, "--out", out) == 2
    flag = [a for a in argv if a.startswith("--")][-1].split("=")[0]
    assert capsys.readouterr().err == f"squashkit: {NEGATIVE_VALUE_REFUSALS[flag]}\n"
    assert not out.exists()
