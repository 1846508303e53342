"""squashkit's values are named tuples: frozen, and checked on every path where one is checked."""

import copy
import importlib
import pickle
import pkgutil
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest

import squashkit
from squashkit import builder, finder, fock, linalg, nogo, povm, squashmap
from squashkit.errors import SquashkitError

from helpers import fresh_python, written

QUARTER_TURN = linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)
QUBIT = {key: np.array(m) for key, m in povm.ideal_qubit_povm().elements.items()}
MODEL = fock.build_detector(fock.fock_sector((1,)))
STATES = {key: np.array(vec) for key, vec in MODEL.states.items()}


def unchecked(cls, fields):
    """A record built by tuple.__new__, as if its check had been skipped."""
    return tuple.__new__(cls, fields)


#: (class, fields that pass its check, fields that fail it); the arrays given at the top
#: level or in a dict are writable, and a made record must hold read-only copies of them
CHECKED = {
    "SquashMap": (
        squashmap.SquashMap,
        (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)),
        (np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
    ),
    "C4Symmetry": (fock.C4Symmetry, (QUARTER_TURN,), (2.0 * np.eye(2),)),
    "FiniteGroup": (
        nogo.FiniteGroup, (2, np.array([[0, 1], [1, 0]]), 0), (2, np.array([[0, 0], [0, 0]]), 0)
    ),
    "LabelAction": (
        nogo.LabelAction, (np.array([[0, 1, 2, 3], [1, 0, 3, 2]]),), (np.zeros((4, 4), int),)
    ),
    "Bb84Povm": (povm.Bb84Povm, (2, QUBIT), (2, {**QUBIT, "x1": np.eye(3)})),
    "FockSector": (fock.FockSector, ((2, 1),), ((-1, 2),)),
    "DetectorModel": (
        fock.DetectorModel,
        (MODEL.sector, MODEL.povm, MODEL.symmetry, STATES),
        # a vacuum sector forged past its check; the other fields are the (1,) detector's
        (unchecked(fock.FockSector, ((0,),)), MODEL.povm, MODEL.symmetry, STATES),
    ),
}


def replaced(cls, fields):
    """A good record with every field replaced through ``_replace``."""
    good = cls(*CHECKED[cls.__name__][1])
    return good._replace(**dict(zip(cls._fields, fields)))


PATHS = {
    "constructor": lambda cls, fields: cls(*fields),
    "_make": lambda cls, fields: cls._make(fields),
    "_replace": replaced,
    **{
        f"pickle-{protocol}": (
            lambda cls, fields, protocol=protocol:
            pickle.loads(pickle.dumps(unchecked(cls, fields), protocol=protocol))
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy": lambda cls, fields: copy.copy(unchecked(cls, fields)),
    "deepcopy": lambda cls, fields: copy.deepcopy(unchecked(cls, fields)),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", CHECKED)
def test_checked_records_are_checked_on_every_path(name, path):
    cls, good, bad = CHECKED[name]
    with pytest.raises(SquashkitError):
        PATHS[path](cls, bad)
    made = PATHS[path](cls, good)
    assert type(made) is cls
    held, given = list(leaves(made)), list(leaves(good))
    assert len(held) == len(given)
    for value, source in zip(held, given):
        if isinstance(source, np.ndarray):  # a read-only copy of the same values
            assert not value.flags.writeable and value is not source
            assert value.dtype == source.dtype and np.array_equal(value, source)
        else:
            assert value == source


def leaves(value):
    """The arrays and scalars nested in a record, mappings walked in key order."""
    if isinstance(value, Mapping):
        for key in sorted(value):
            yield key
            yield from leaves(value[key])
    elif isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value


DETECTOR_11 = fock.build_detector(fock.fock_sector((1, 1)))  # dimension 4, as (3,) has
DETECTOR_3 = fock.build_detector(fock.fock_sector((3,)))
DERIVED = {
    "a set's dim": lambda: povm.ideal_qubit_povm()._replace(dim=3),
    "a group's order": lambda: nogo.cyclic_group(2)._replace(order=3),
    "a detector's set": lambda: DETECTOR_11._replace(povm=DETECTOR_3.povm),
    "a detector's unitary": lambda: DETECTOR_11._replace(symmetry=DETECTOR_3.symmetry),
    "a detector's states": lambda: DETECTOR_11._replace(states=DETECTOR_3.states),
    "a detector's fields": lambda: fock.DetectorModel(DETECTOR_11.sector, *DETECTOR_3[1:]),
    # equal as numbers, but written "-0.0" where the detector's file says "0.0"
    "a detector's zero sign": lambda: DETECTOR_11._replace(
        states={**DETECTOR_11.states, "z0": np.array([1.0, -0.0, 0.0, 0.0], dtype=complex)}
    ),
}


@pytest.mark.parametrize("field", DERIVED)
def test_a_field_that_follows_from_the_others_must_agree_with_them(field):
    with pytest.raises(SquashkitError):
        DERIVED[field]()


def test_a_detector_with_its_own_fields_is_rebuilt_from_its_sector():
    made = DETECTOR_11._replace(states={k: np.array(v) for k, v in DETECTOR_11.states.items()})
    assert made.sector == DETECTOR_11.sector and not made.states["z0"].flags.writeable


def records() -> dict:
    """One value of each of squashkit's record types, by class name."""
    model = fock.build_detector(fock.fock_sector((1,)))
    p, sym = model.povm, model.symmetry
    lam, v = builder.extract_rank2(p.difference("z"), sym)
    squash = builder.construct_theorem1(p, sym)
    report = finder.find_squash(p)
    group, action = nogo.cyclic_group(2), nogo.c2_basis_swap_action()
    values = [
        p,
        povm.validate(p),
        group,
        action,
        sym,
        builder.check_definition1(sym, p),
        model.sector,
        model,
        squash,
        builder.mu_decompose(v, sym, lam),
        squashmap.verify_squash(squash, p),
        report.witness,
        report,
        nogo.symmetrize(p, group, action),
        nogo.bbm92_attack(p, 10),
    ]
    return {type(value).__name__: value for value in values}


RECORDS = records()


def reports() -> dict:
    """The CheckReport that each check returns, under the name its own report type once had.

    Every check now returns one ``linalg.CheckReport``, so ``RECORDS`` holds it once; each
    path that makes one is still checked to hand back a frozen record.
    """
    model = fock.build_detector(fock.fock_sector((1,)))
    p, sym = model.povm, model.symmetry
    return {
        "ValidationReport": povm.validate(p),
        "SymmetryReport": builder.check_definition1(sym, p),
        "VerificationReport": squashmap.verify_squash(builder.construct_theorem1(p, sym), p),
    }


FROZEN = {**RECORDS, **reports()}


def public_classes(base) -> set:
    """Names of the public classes in squashkit's modules that derive from ``base``."""
    modules = [
        importlib.import_module(f"squashkit.{info.name}")
        for info in pkgutil.iter_modules(squashkit.__path__)
    ]
    return {
        name for module in modules for name, value in vars(module).items()
        if isinstance(value, type) and base in value.__mro__[1:] and not name.startswith("_")
    }


def test_every_record_type_is_listed():
    public = public_classes(tuple)
    assert sorted(RECORDS) == sorted(public) and len(public) == 13


def test_every_checked_record_is_tested_on_every_path():
    # a record that takes the class-call protocol cannot be left out of CHECKED, nor one in
    # CHECKED skip the protocol
    assert sorted(public_classes(linalg.Checked)) == sorted(CHECKED)


@pytest.mark.parametrize("name", FROZEN)
def test_records_are_frozen(name):
    record = FROZEN[name]
    assert type(record).__name__ in RECORDS
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "a record takes no attribute beyond its fields"


#: SquashMap(g0=[[0.6]], g1=[[0.8j]]) as pickled while the class lived in ``builder``; the
#: bytes name ``squashkit.builder``, which still binds the class it uses
OLD_MAP_PICKLES = {
    0: (
        b'csquashkit.builder\nSquashMap\np0\n(cnumpy._core.multiarray\n_reconstruct\np1\n'
        b'(cnumpy\nndarray\np2\n(I0\ntp3\nc_codecs\nencode\np4\n(Vb\np5\nVlatin1\np6\n'
        b'tp7\nRp8\ntp9\nRp10\n(I1\n(I1\nI1\ntp11\ncnumpy\ndtype\np12\n(Vc16\np13\nI00\n'
        b'I01\ntp14\nRp15\n(I3\nV<\np16\nNNNI-1\nI-1\nI0\ntp17\nbI00\ng4\n'
        b'(V333333\xe3?\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\np18\n'
        b'g6\ntp19\nRp20\ntp21\nbg1\n(g2\n(I0\ntp22\ng8\ntp23\nRp24\n(I1\n(I1\nI1\ntp25\n'
        b'g15\nI00\ng4\n(V\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\x9a'
        b'\x99\x99\x99\x99\x99\xe9?\np26\ng6\ntp27\nRp28\ntp29\nbtp30\nRp31\n.'
    ),
    5: (
        b'\x80\x05\x95\xca\x00\x00\x00\x00\x00\x00\x00\x8c\x11squashkit.builder\x94\x8c\t'
        b'SquashMap\x94\x93\x94\x8c\x13numpy._core.numeric\x94\x8c\x0b_frombuffer\x94\x93'
        b'\x94(C\x10333333\xe3?\x00\x00\x00\x00\x00\x00\x00\x00\x94\x8c\x05numpy\x94\x8c'
        b'\x05dtype\x94\x93\x94\x8c\x03c16\x94\x89\x88\x87\x94R\x94(K\x03\x8c\x01<\x94NNN'
        b'J\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94bK\x01K\x01\x86\x94\x8c\x01C\x94t'
        b'\x94R\x94h\x05(C\x10\x00\x00\x00\x00\x00\x00\x00\x00\x9a\x99\x99\x99\x99\x99'
        b'\xe9?\x94h\x0cK\x01K\x01\x86\x94h\x10t\x94R\x94\x86\x94R\x94.'
    ),
}


@pytest.mark.parametrize("protocol", OLD_MAP_PICKLES)
def test_a_map_pickled_under_its_old_module_still_loads(protocol):
    made = pickle.loads(OLD_MAP_PICKLES[protocol])
    expected = squashmap.SquashMap(g0=[[0.6]], g1=[[0.8j]])
    assert type(made) is squashmap.SquashMap
    for value, source in zip(made, expected):
        assert not value.flags.writeable and value.dtype == source.dtype
        assert np.array_equal(value, source)


def test_a_map_pickled_here_loads_without_the_constructor(tmp_path):
    path = tmp_path / "map.pickle"
    path.write_bytes(pickle.dumps(squashmap.SquashMap(g0=[[0.6]], g1=[[0.8j]])))
    probe = (  # unpickling alone imports squashkit and the map's module
        "import pickle, sys\n"
        f"squash = pickle.loads(open({str(path)!r}, 'rb').read())\n"
        "print(type(squash).__module__, squash.g0[0, 0], squash.g1[0, 0])\n"
        "print(squash.g0.flags.writeable or squash.g1.flags.writeable)\n"
        "print(sorted({'squashkit.builder'} & set(sys.modules)))\n"
    )
    assert fresh_python(probe).splitlines() == [
        "squashkit.squashmap (0.6+0j) 0.8j", "False", "[]",
    ]



#: A DetectorModel of sector (1,) and the one-dimensional set z0 = 0.6, z1 = 0.4, x0 = x1 = 0.5,
#: as pickled while squashkit had a ``groups`` module; neither pickle names it
OLD_PICKLES = {
    ("DetectorModel", 0): (
        b'csquashkit.fock\nbuild_detector\np0\n(csquashkit.fock\nFockSector\np1\n((I1\ntp2'
        b'\ntp3\nRp4\ntp5\nRp6\n.'
    ),
    ("DetectorModel", 5): (
        b'\x80\x05\x95B\x00\x00\x00\x00\x00\x00\x00\x8c\x0esquashkit.fock\x94\x8c\x0ebuild_'
        b'detector\x94\x93\x94h\x00\x8c\nFockSector\x94\x93\x94K\x01\x85\x94\x85\x94R\x94'
        b'\x85\x94R\x94.'
    ),
    ("Bb84Povm", 0): (
        b'csquashkit.povm\nBb84Povm\np0\n(I1\n(dp1\nVz0\np2\ncnumpy._core.multiarray\n_reco'
        b'nstruct\np3\n(cnumpy\nndarray\np4\n(I0\ntp5\nc_codecs\nencode\np6\n(Vb\np7\nVlati'
        b'n1\np8\ntp9\nRp10\ntp11\nRp12\n(I1\n(I1\nI1\ntp13\ncnumpy\ndtype\np14\n(Vc16\np15'
        b'\nI00\nI01\ntp16\nRp17\n(I3\nV<\np18\nNNNI-1\nI-1\nI0\ntp19\nbI00\ng6\n(V333333'
        b'\xe3?\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\np20\ng8\ntp21\nRp2'
        b'2\ntp23\nbsVx0\np24\ng3\n(g4\n(I0\ntp25\ng10\ntp26\nRp27\n(I1\n(I1\nI1\ntp28\ng17'
        b'\nI00\ng6\n(V\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\xe0?\\u0000\\u0000\\u0000'
        b'\\u0000\\u0000\\u0000\\u0000\\u0000\np29\ng8\ntp30\nRp31\ntp32\nbsVz1\np33\ng3\n('
        b'g4\n(I0\ntp34\ng10\ntp35\nRp36\n(I1\n(I1\nI1\ntp37\ng17\nI00\ng6\n(V\x9a\x99\x99'
        b'\x99\x99\x99\xd9?\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\np38\ng'
        b'8\ntp39\nRp40\ntp41\nbsVx1\np42\ng3\n(g4\n(I0\ntp43\ng10\ntp44\nRp45\n(I1\n(I1\nI'
        b'1\ntp46\ng17\nI00\ng6\n(V\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\xe0?\\u0000\\'
        b'u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\np47\ng8\ntp48\nRp49\ntp50\nbstp5'
        b'1\nRp52\n.'
    ),
    ("Bb84Povm", 5): (
        b'\x80\x05\x95(\x01\x00\x00\x00\x00\x00\x00\x8c\x0esquashkit.povm\x94\x8c\x08Bb84Po'
        b'vm\x94\x93\x94K\x01}\x94(\x8c\x02z0\x94\x8c\x13numpy._core.numeric\x94\x8c\x0b_fr'
        b'ombuffer\x94\x93\x94(C\x10333333\xe3?\x00\x00\x00\x00\x00\x00\x00\x00\x94\x8c\x05'
        b'numpy\x94\x8c\x05dtype\x94\x93\x94\x8c\x03c16\x94\x89\x88\x87\x94R\x94(K\x03\x8c'
        b'\x01<\x94NNNJ\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94bK\x01K\x01\x86\x94\x8c'
        b'\x01C\x94t\x94R\x94\x8c\x02x0\x94h\x07(C\x10\x00\x00\x00\x00\x00\x00\xe0?\x00\x00'
        b'\x00\x00\x00\x00\x00\x00\x94h\x0eK\x01K\x01\x86\x94h\x12t\x94R\x94\x8c\x02z1\x94h'
        b'\x07(C\x10\x9a\x99\x99\x99\x99\x99\xd9?\x00\x00\x00\x00\x00\x00\x00\x00\x94h\x0eK'
        b'\x01K\x01\x86\x94h\x12t\x94R\x94\x8c\x02x1\x94h\x07(C\x10\x00\x00\x00\x00\x00\x00'
        b'\xe0?\x00\x00\x00\x00\x00\x00\x00\x00\x94h\x0eK\x01K\x01\x86\x94h\x12t\x94R\x94u'
        b'\x86\x94R\x94.'
    ),
}


@pytest.mark.parametrize("name, protocol", OLD_PICKLES)
def test_a_detector_or_set_pickled_before_the_groups_module_went_still_loads(name, protocol):
    made = pickle.loads(OLD_PICKLES[name, protocol])
    if name == "DetectorModel":
        expected = fock.build_detector(fock.fock_sector((1,)))
        assert type(made) is fock.DetectorModel
        assert written(fock.detector_to_json(made)) == written(fock.detector_to_json(expected))
    else:
        expected = povm.make_povm({"z0": [[0.6]], "z1": [[0.4]], "x0": [[0.5]], "x1": [[0.5]]})
        assert type(made) is povm.Bb84Povm and made.dim == expected.dim == 1
        assert list(made.elements) == list(expected.elements)
        for key, value in made.elements.items():
            assert not value.flags.writeable and value.dtype == expected.elements[key].dtype
            assert np.array_equal(value, expected.elements[key])


def with_nan(p):
    """The set ``p`` with one entry of x0 made NaN, built past the set's check."""
    elements = {key: np.array(m) for key, m in p.elements.items()}
    elements["x0"][0, 0] = np.nan
    return unchecked(povm.Bb84Povm, (p.dim, MappingProxyType(elements)))


SYMMETRIZED = nogo.symmetrize(
    povm.ideal_qubit_povm(), nogo.cyclic_group(4), nogo.canonical_c4_action()
)
IDENTITY_MAP = squashmap.squash_from_kraus(2, (np.eye(2, dtype=complex),))

#: check -> (its call on a measurement set, a set it passes, a set it fails)
CHECKS = {
    "validate": (
        povm.validate,
        povm.ideal_qubit_povm(),
        povm.make_povm({key: np.eye(2) for key in povm.LABELS}),  # each pair sums to 2
    ),
    "definition1": (
        lambda p: builder.check_definition1(MODEL.symmetry, p), MODEL.povm, nogo.counterexample_m0()
    ),
    "definition2": (
        lambda p: nogo.check_definition2(SYMMETRIZED.group, SYMMETRIZED.action, p),
        SYMMETRIZED.tilde,
        # the qubit set times an idle register: V(g) fixes every element the action moves
        povm.make_povm({key: np.kron(m, np.eye(4)) for key, m in QUBIT.items()}),
    ),
    "verify_squash": (
        lambda p: squashmap.verify_squash(IDENTITY_MAP, p),
        povm.ideal_qubit_povm(),
        nogo.counterexample_m0(),
    ),
}


@pytest.mark.parametrize("case", ["passing", "failing", "nan"])
@pytest.mark.parametrize("check", CHECKS)
def test_every_check_returns_one_report(check, case):
    run, passing, failing = CHECKS[check]
    report = run({"passing": passing, "failing": failing, "nan": with_nan(passing)}[case])
    assert type(report) is linalg.CheckReport
    assert report.passed == (report.max_residual <= report.tol) == (case == "passing")
    assert np.isnan(report.max_residual) == (case == "nan")

