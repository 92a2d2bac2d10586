"""Scan-chain design-for-test toolkit.

Parses gate-level netlists, stitches flip-flops into scan chains, simulates
the shift/capture test protocol, validates transistor-level scan flip-flop
encodings against the behavioral model, and reports timing and power across
the multiplexer-based, gate-diffusion-input, and approximate flip-flop
variants.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines each. ``import scanforge``
# loads none of these modules: a name is imported from its home module the
# first time it is looked up (PEP 562), and then kept here.
_EXPORTS = {
    "logic": ("Bit", "X"),
    "errors": ("ScanforgeError", "InputFileError"),
    "kinds": ("FFVariant", "Stage", "Mode", "GateType"),
    "cells": (
        "ModeTiming", "FFVariantParams", "GateParams", "CellLibrary", "CellConfigError",
        "ComparisonRow", "comparison_table", "load_library",
    ),
    "netlist": (
        "Netlist", "Gate", "Dff", "ScanFF", "PatternSet", "NetlistSyntaxError",
        "DuplicateInstanceError", "MultiplyDrivenNetError", "UndrivenNetError",
        "CombinationalCycleError", "PatternSyntaxError", "PatternWidthError",
        "parse_netlist", "serialize_netlist", "load_netlist",
        "parse_patterns", "load_patterns",
    ),
    "ffmodel": ("FFState", "ff_selected_input", "ff_cycle"),
    "switchsim": (
        "TransistorType", "Transistor", "TransistorNetwork", "NodeValue",
        "NetworkSyntaxError", "DanglingNodeError", "MissingSupplyError",
        "StimulusError", "OscillationError", "SwitchFF", "settle", "run_cycles",
        "load_network", "load_network_file", "bundled_network", "check_behavioral",
    ),
    "scan": (
        "ScanChainPlan", "ScanPlanError", "NameCollisionError", "BrokenChainError",
        "MultipleChainsError", "MixedVariantError", "default_plan", "insert_scan",
        "verify_chain",
    ),
    "protocol": (
        "Phase", "CycleSim", "ProtocolTrace", "ProtocolError",
        "sim_functional", "run_scan_test", "flush_chain", "cycle_budget",
    ),
    "sta": (
        "TimingReport", "TimingError", "analyze_timing", "time_gain",
        "zero_cloud_netlist",
    ),
    "power": (
        "PowerReport", "PowerModelError", "estimate_power", "power_gain",
    ),
    "vcd": ("to_vcd", "dump_vcd"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
