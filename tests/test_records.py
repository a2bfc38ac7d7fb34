"""The result records: named tuples with a fixed field order, and an
import of the package that loads neither multiprocessing nor any
dataclass but ``Graph``."""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import kcrit
from kcrit.census import CensusRow, VerifyReport
from kcrit.certify import CertifiedAnswer, CriticalDatabase
from kcrit.critical import CriticalityReport
from kcrit.graph import from_graph6
from kcrit.invariants import Coloring
from kcrit.patterns import JoinDecomposition

# one record of each kind, its field order and the repr the frozen
# dataclass it replaced printed for it
RECORDS = [
    (CensusRow(4, ("C~",)), ("n", "codes"), "CensusRow(n=4, codes=('C~',))"),
    (VerifyReport(2, ((2, "not 4-vertex-critical"),), ("C~", "Bw")),
     ("total", "failures", "codes", "census_match"),
     "VerifyReport(total=2, failures=((2, 'not 4-vertex-critical'),), "
     "codes=('C~', 'Bw'), census_match=None)"),
    (CriticalityReport(3, False, 3), ("k", "is_critical", "witness"),
     "CriticalityReport(k=3, is_critical=False, witness=3)"),
    (Coloring((0, 1, 0), 2), ("colors", "k"), "Coloring(colors=(0, 1, 0), k=2)"),
    (JoinDecomposition((3, 12), (True, False), (2, 1, 8, 4)),
     ("factors", "alpha_le_2", "co"),
     "JoinDecomposition(factors=(3, 12), alpha_le_2=(True, False), co=(2, 1, 8, 4))"),
    (CertifiedAnswer("yes", Coloring((0, 1, 2, 0), 3)), ("verdict", "coloring", "witness"),
     "CertifiedAnswer(verdict='yes', coloring=Coloring(colors=(0, 1, 2, 0), k=3), "
     "witness=None)"),
    (CriticalDatabase(4, ("C~",)), ("k", "graphs"),
     "CriticalDatabase(k=4, graphs=('C~',))"),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_record_fields_and_repr(record, fields, text):
    # positional calls keep their meaning, and the repr is the dataclass's
    # (the README's Library block prints a CriticalityReport)
    assert type(record)._fields == fields
    assert repr(record) == text


@pytest.mark.parametrize("record, fields", [r[:2] for r in RECORDS], ids=IDS)
def test_record_is_immutable_and_pickles(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record and hash(back) == hash(record)


def test_record_properties_and_methods():
    assert CensusRow(7, ("F}hXw", "F}l_w")).count == 2
    assert VerifyReport(1, (), ("C~",)).ok
    assert not VerifyReport(1, (), ("C~",), census_match=False).ok
    assert not VerifyReport(1, ((1, "not 4-vertex-critical"),), ("C~",)).ok
    db = CriticalDatabase(4, ("C~", "E}iW", "F}hXw"))
    assert list(db.members_by_order()) == [from_graph6(c) for c in ("C~", "E}iW", "F}hXw")]


def test_import_loads_no_pool_and_no_record_dataclass():
    # every module of the package imported in a fresh interpreter: no
    # process pool module, and Graph the one dataclass
    script = ("import sys, kcrit, importlib, inspect, pkgutil\n"
              "assert 'multiprocessing' not in sys.modules, 'import kcrit'\n"
              "mods = [importlib.import_module('kcrit.' + m.name)\n"
              "        for m in pkgutil.iter_modules(kcrit.__path__)]\n"
              "assert 'multiprocessing' not in sys.modules, 'a kcrit module'\n"
              "print(sorted({c.__name__ for m in [kcrit, *mods]\n"
              "              for _, c in inspect.getmembers(m, inspect.isclass)\n"
              "              if c.__module__.startswith('kcrit')\n"
              "              and hasattr(c, '__dataclass_fields__')}))\n")
    src = str(pathlib.Path(kcrit.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "['Graph']\n"
