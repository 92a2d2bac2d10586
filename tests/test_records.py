"""The package's records: construction, value equality, immutability and repr.

Immutable bundles of fields are named tuples; ``Netlist`` and
``TransistorNetwork`` subclass ``kinds.FrozenRecord``, which keeps their
fields read-only beside the compiled form each keeps. Each record is built
by position and by keyword, compared and hashed by value, refuses
assignment to its fields, survives a deep copy, and prints the same
``repr`` text as it always has. The three cell records check their fields
on every way of building or copying one.
"""

from __future__ import annotations

import copy
import inspect

import pytest

from scanforge import cells
from scanforge.cells import (
    CellConfigError,
    CellLibrary,
    ComparisonRow,
    FFVariantParams,
    GateParams,
    ModeTiming,
)
from scanforge.ffmodel import FFState
from scanforge.kinds import FFVariant, GateType, Mode, Stage
from scanforge.netlist import Dff, Gate, Netlist, PatternSet, ScanFF
from scanforge.power import PowerReport
from scanforge.protocol import CycleSim, Phase, ProtocolTrace
from scanforge.scan import ScanChainPlan
from scanforge.sta import TimingReport
from scanforge.switchsim import NodeValue, Transistor, TransistorNetwork, TransistorType

ROW = ModeTiming(0.06, 0.14, 0.2, 2.1)
T1 = Transistor("n1", TransistorType.NMOS, "A", "Y", "GND", 1.0)
G1 = Gate("g1", GateType.NAND2, "Y", ("A", "B"))
PARAMS = FFVariantParams(FFVariant.MUX, Stage.PRE_LAYOUT, ROW, ROW, 16)
# One net, so its compiled numbering cannot follow the string hash seed
ONE_NET = Netlist("top", ("A",), ("A",), ())

# Each record: its class, the constructor's arguments in order, the
# keyword-only ones, whether it hashes, and its repr text.
RECORDS = {
    "Gate": (
        Gate, ("g1", GateType.NAND2, "Y", ("A", "B")), {}, True,
        "Gate(id='g1', gtype=<GateType.NAND2: 'NAND2'>, out='Y', ins=('A', 'B'))",
    ),
    "Dff": (Dff, ("f1", "Q", "D"), {}, True, "Dff(id='f1', q='Q', di='D')"),
    "ScanFF": (
        ScanFF, ("s1", FFVariant.APPROX, "Q", "D", "SI", "SE"), {}, True,
        "ScanFF(id='s1', variant=<FFVariant.APPROX: 'approx'>, q='Q', di='D', si='SI', se='SE')",
    ),
    "Netlist": (
        Netlist, ("top", ("A", "B"), ("Y",), (G1,)), {}, True,
        "Netlist(name='top', inputs=('A', 'B'), outputs=('Y',), instances=(Gate(id='g1', "
        "gtype=<GateType.NAND2: 'NAND2'>, out='Y', ins=('A', 'B')),))",
    ),
    "PatternSet": (
        PatternSet, (2, ("01", "10"), ("11", None)), {}, True,
        "PatternSet(chain_length=2, vectors=('01', '10'), expected=('11', None))",
    ),
    "ProtocolTrace": (
        ProtocolTrace, (ONE_NET, [1], [1], [Phase.SHIFT_IN], [1], {}, {}, {}, {}, []), {}, False,
        "ProtocolTrace(netlist_name='top', nets=('A',), net_toggles={}, net_drivers={}, "
        "ff_internal_toggles={}, ff_contentions={}, phase_counts={}, warnings=[], "
        "phases=[<Phase.SHIFT_IN: 'shift_in'>], se=[1])",
    ),
    "ScanChainPlan": (
        ScanChainPlan, (FFVariant.GDI, ("f1", "f2"), "SCAN_IN", "SCAN_OUT", "SCAN_EN"), {}, True,
        "ScanChainPlan(variant=<FFVariant.GDI: 'gdi'>, order=('f1', 'f2'), chain_in='SCAN_IN', "
        "chain_out='SCAN_OUT', enable='SCAN_EN')",
    ),
    "TimingReport": (
        TimingReport,
        ("top", FFVariant.MUX, Stage.POST_LAYOUT, Mode.TEST, 0.1, 0.085, 0.05, 0.235, 4.25e9,
         0.365, 0.135, ("f1", "g1", "f2")),
        {}, True,
        "TimingReport(netlist_name='top', variant=<FFVariant.MUX: 'mux'>, "
        "stage=<Stage.POST_LAYOUT: 'post_layout'>, mode=<Mode.TEST: 'test'>, t_comb_ns=0.1, "
        "t_su_ns=0.085, t_cq_ns=0.05, t_clk_min_ns=0.235, f_max_hz=4250000000.0, t_pd_ns=0.365, "
        "t_pd_sum_ns=0.135, critical_path=('f1', 'g1', 'f2'))",
    ),
    "PowerReport": (
        PowerReport,
        ("top", FFVariant.APPROX, Stage.PRE_LAYOUT, Mode.FUNCTIONAL, 16, 1.0, 6.5, 2.25, 0,
         {"f1": 6.5}),
        {}, False,
        "PowerReport(netlist_name='top', variant=<FFVariant.APPROX: 'approx'>, "
        "stage=<Stage.PRE_LAYOUT: 'pre_layout'>, mode=<Mode.FUNCTIONAL: 'functional'>, "
        "cycles=16, t_clk_ns=1.0, ff_internal_energy_fj=6.5, combinational_energy_fj=2.25, "
        "contention_cycles=0, per_ff_energy_fj={'f1': 6.5})",
    ),
    "ComparisonRow": (
        ComparisonRow, ("mishra2010modified", 0.077, None, 26), {}, True,
        "ComparisonRow(label='mishra2010modified', t_pd=0.077, avg_power_uw=None, area=26)",
    ),
    "CellLibrary": (
        CellLibrary,
        ({(FFVariant.MUX, Stage.PRE_LAYOUT): PARAMS}, {GateType.INV: GateParams(0.03, 0.3)}),
        {}, False,
        "CellLibrary(ffs={(<FFVariant.MUX: 'mux'>, <Stage.PRE_LAYOUT: 'pre_layout'>): "
        "FFVariantParams(variant=<FFVariant.MUX: 'mux'>, stage=<Stage.PRE_LAYOUT: 'pre_layout'>, "
        "functional=ModeTiming(t_su=0.06, t_cq=0.14, t_pd=0.2, avg_power_uw=2.1), "
        "test=ModeTiming(t_su=0.06, t_cq=0.14, t_pd=0.2, avg_power_uw=2.1), area=16)}, "
        "gates={<GateType.INV: 'INV'>: GateParams(delay_ns=0.03, energy_per_toggle_fj=0.3)})",
    ),
    "FFState": (
        FFState, (FFVariant.APPROX, 1, 0, 2, 5), {}, True,
        "FFState(variant=<FFVariant.APPROX: 'approx'>, master=1, slave=0, contention_count=2, "
        "internal_toggle_count=5)",
    ),
    "Transistor": (
        Transistor, ("n1", TransistorType.NMOS, "A", "Y", "GND", 1.0), {}, True,
        "Transistor(id='n1', ttype=<TransistorType.NMOS: 'N'>, gate='A', src='Y', drn='GND', "
        "width=1.0)",
    ),
    "NodeValue": (NodeValue, (1, 3.0), {}, True, "NodeValue(logic=1, rank=3.0)"),
    "TransistorNetwork": (
        TransistorNetwork,
        (("VDD", "GND", "A", "Y"), frozenset({"Y"}), ("A",), ("Y",), (T1,)), {}, True,
        "TransistorNetwork(nodes=('VDD', 'GND', 'A', 'Y'), storage=frozenset({'Y'}), "
        "inputs=('A',), outputs=('Y',), transistors=(Transistor(id='n1', "
        "ttype=<TransistorType.NMOS: 'N'>, gate='A', src='Y', drn='GND', width=1.0),))",
    ),
    "ModeTiming": (
        ModeTiming, (0.06, 0.14, 0.2, 2.1), {}, True,
        "ModeTiming(t_su=0.06, t_cq=0.14, t_pd=0.2, avg_power_uw=2.1)",
    ),
    "FFVariantParams": (
        FFVariantParams, (FFVariant.MUX, Stage.PRE_LAYOUT, ROW, ROW, 16), {}, True,
        "FFVariantParams(variant=<FFVariant.MUX: 'mux'>, stage=<Stage.PRE_LAYOUT: 'pre_layout'>, "
        "functional=ModeTiming(t_su=0.06, t_cq=0.14, t_pd=0.2, avg_power_uw=2.1), "
        "test=ModeTiming(t_su=0.06, t_cq=0.14, t_pd=0.2, avg_power_uw=2.1), area=16)",
    ),
    "GateParams": (
        GateParams, (0.05, 0.5), {}, True, "GateParams(delay_ns=0.05, energy_per_toggle_fj=0.5)",
    ),
}


def _other(value):
    """A value of the same kind that differs from ``value``."""
    if isinstance(value, Netlist):
        return Netlist(value.name + "x", value.inputs, value.outputs, value.instances)
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, (int, float)):
        return value + 1
    return type(value)()


def _build(name):
    cls, args, kwonly, _, _ = RECORDS[name]
    return cls(*args, **kwonly)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_builds_compares_and_prints_as_before(name):
    cls, args, kwonly, hashable, text = RECORDS[name]
    params = [p for p in inspect.signature(cls).parameters if p not in kwonly]
    assert len(params) == len(args)
    by_position = cls(*args, **kwonly)
    by_keyword = cls(**dict(zip(params, args)), **kwonly)
    assert type(by_position) is type(by_keyword) is cls
    for param, arg in zip(params, args):
        assert getattr(by_position, param) == arg
    assert by_position == by_keyword and not by_position != by_keyword
    assert repr(by_position) == repr(by_keyword) == text
    if hashable:
        assert hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(by_position)
    changed = cls(_other(args[0]), *args[1:], **kwonly)
    assert by_position != changed and not by_position == changed
    assert copy.deepcopy(by_position) == by_position


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    record = _build(name)
    field = next(iter(inspect.signature(type(record)).parameters))
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


def test_protocol_trace_repr_shows_nets_and_drivers_not_the_netlist_or_lanes():
    n = Netlist("top", ("A",), ("Y",), (Gate("g1", GateType.INV, "Y", ("A",)),))
    trace = ProtocolTrace(n, [0, 0], [1, 1], [Phase.SHIFT_IN], [1], {}, {}, {}, {}, [])
    # two nets: their order follows the string hash seed
    assert repr(trace) == (
        f"ProtocolTrace(netlist_name='top', nets={n.compiled.nets!r}, net_toggles={{}}, "
        "net_drivers={'Y': <GateType.INV: 'INV'>}, ff_internal_toggles={}, ff_contentions={}, "
        "phase_counts={}, warnings=[], phases=[<Phase.SHIFT_IN: 'shift_in'>], se=[1])"
    )
    assert sorted(n.compiled.nets) == ["A", "Y"]


def test_plain_records_equal_only_their_own_class():
    a = Netlist("top", (), (), ())
    assert a != object() and a != ("top", (), (), ())
    assert TransistorNetwork((), frozenset(), (), (), ()) != a


def test_defaults():
    # a netlist names every field: no caller leaves one out
    with pytest.raises(TypeError):
        Netlist("top")
    assert repr(Netlist("top", (), (), ())) == (
        "Netlist(name='top', inputs=(), outputs=(), instances=())"
    )
    assert repr(ScanChainPlan(FFVariant.MUX, ("f1",))) == (
        "ScanChainPlan(variant=<FFVariant.MUX: 'mux'>, order=('f1',), chain_in='SI', "
        "chain_out='SO', enable='SE')"
    )
    assert repr(FFState()) == (
        "FFState(variant=None, master=None, slave=None, contention_count=0, "
        "internal_toggle_count=0)"
    )
    # the trace of a run of no cycles on a netlist of no nets
    assert repr(CycleSim(Netlist("empty", (), (), ())).finish()) == (
        "ProtocolTrace(netlist_name='empty', nets=(), net_toggles={}, net_drivers={}, "
        "ff_internal_toggles={}, ff_contentions={}, phase_counts={}, warnings=[], phases=[], se=[])"
    )
    # each trace gets its own containers
    a, b = CycleSim(Netlist("a", (), (), ())).finish(), CycleSim(Netlist("b", (), (), ())).finish()
    a.warnings.append("w")
    assert b.warnings == [] and a.net_toggles is not b.net_toggles


def test_netlist_keeps_its_compiled_form():
    n = Netlist("top", ("A", "B"), ("Y",), (G1,))
    assert n.compiled is n.compiled
    with pytest.raises(AttributeError):
        n.compiled = None
    assert "flops" in Netlist.__dict__ and "comb_order" in Netlist.__dict__


# every way of building or copying a cell record, with one field set to value
def _ways(record, field, value):
    cls = type(record)
    values = [value if f == field else getattr(record, f) for f in record._fields]
    yield lambda: cls(*values)
    yield lambda: cls(**dict(zip(record._fields, values)))
    yield lambda: record._replace(**{field: value})
    yield lambda: cls._make(values)
    if hasattr(copy, "replace"):  # Python 3.13
        yield lambda: copy.replace(record, **{field: value})


CELL_CHECKS = [
    (ROW, "t_su", -0.1),
    (ROW, "t_cq", 0.0),
    (ROW, "t_pd", float("nan")),
    (ROW, "avg_power_uw", float("inf")),
    (PARAMS, "area", 0),
    (GateParams(0.05, 0.5), "delay_ns", 0.0),
    (GateParams(0.05, 0.5), "energy_per_toggle_fj", -1.0),
]


@pytest.mark.parametrize("record,field,value", CELL_CHECKS)
def test_cell_records_check_every_build_and_copy(record, field, value):
    for build in _ways(record, field, value):
        with pytest.raises(CellConfigError, match=field):
            build()
    # an in-range value passes every way
    good = getattr(record, field) * 2
    for build in _ways(record, field, good):
        assert getattr(build(), field) == good


def test_override_applies_the_record_checks():
    with pytest.raises(CellConfigError, match=r"\[gate.INV\] delay_ns"):
        cells._override("gate.INV", GateParams(0.03, 0.3), {"delay_ns": "-1"}, cells._GATE_KEYS)
    row = cells._override("ff.MUX.pre_layout.test", ROW, {"t_cq": "0.5"}, cells._MODE_KEYS)
    assert type(row) is ModeTiming and row == ROW._replace(t_cq=0.5)
