"""squashkit's values are named tuples: frozen, and checked on every path where one is checked."""

import copy
import pickle

import numpy as np
import pytest

from squashkit import builder, finder, fock, groups, linalg, nogo, povm
from squashkit.errors import SquashkitError

QUARTER_TURN = linalg.unitary_from_generator(linalg.PAULI_Y, -np.pi / 4)

#: (class, fields that pass its check, fields that fail it), every array writable
CHECKED = {
    "SquashMap": (
        builder.SquashMap,
        (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)),
        (np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
    ),
    "C4Symmetry": (groups.C4Symmetry, (QUARTER_TURN,), (2.0 * np.eye(2),)),
}


def unchecked(cls, fields):
    """A record built by tuple.__new__, as if its check had been skipped."""
    return tuple.__new__(cls, fields)


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
    for held, given in zip(made, good):
        assert not held.flags.writeable and held is not given
        assert held.dtype == complex and np.array_equal(held, given)


def records() -> dict:
    """One value of each of squashkit's record types, by class name."""
    model = fock.build_detector(fock.fock_sector((1,)))
    p, sym = model.povm, model.symmetry
    lam, v = builder.extract_rank2(p.difference("z"), sym)
    squash = builder.construct_theorem1(p, sym)
    report = finder.find_squash(p)
    group, action = groups.cyclic_group(2), groups.c2_basis_swap_action()
    values = [
        linalg.hermitian_eig(np.eye(2)),
        p,
        povm.validate(p),
        group,
        action,
        sym,
        groups.check_definition1(sym, p),
        model.sector,
        model,
        squash,
        builder.mu_decompose(v, sym, lam),
        builder.verify_squash(squash, p),
        report.witness,
        report,
        nogo.symmetrize(p, group, action),
        nogo.bbm92_attack(p, 10),
    ]
    return {type(value).__name__: value for value in values}


RECORDS = records()


def test_every_record_type_is_listed():
    modules = (builder, finder, fock, groups, linalg, nogo, povm)
    public = {
        name for module in modules for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple) and not name.startswith("_")
    }
    assert sorted(RECORDS) == sorted(public) and len(public) == 16


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "a record takes no attribute beyond its fields"
