"""The benchmark's tracer (``perfbench/tracing.py``) wraps package names it
looks up with ``vars(owner)``; a refactor that renames or inherits one of
them would silently zero a traced layer.  These tests load the tracer
without importing it as a package module, so nothing is written there."""

import importlib
import types
from pathlib import Path

import pytest

from berge import enumeration
from berge.enumeration import _SPLIT_DEPTH, verify_claims, verify_theorem_shadow

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    for module_name, attr, _layer, _options in _tracing().TARGETS:
        owner, name = importlib.import_module(module_name), attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(owner, cls_name)
        assert vars(owner).get(name) is not None, f"{module_name}.{attr}"


@pytest.mark.parametrize("kind,args,verify", [
    ("bound", (5, 4), lambda: verify_theorem_shadow(5, 4, jobs=1)),
    ("claims", (5,), lambda: verify_claims(5, jobs=1)),
])
def test_fanout_replay_visits_every_instance(kind, args, verify):
    camp = _tracing().make_campaign(enumeration, kind, args)
    acc, units = camp.run_top(_SPLIT_DEPTH)
    assert units
    visited = acc.visited + sum(camp.run_prefix(u).visited for u in units)
    assert visited == verify().instances_checked


def test_bound_campaign_adapter_keeps_the_bound():
    # the replay test above counts visits only, so it would miss an adapter
    # that swapped lhs and rhs
    built = _tracing().make_campaign(enumeration, "bound", (5, 4))
    want = enumeration._BoundCampaign(5, 4, "23", 2, 15)
    for attr in ("k", "unit", "max_ok", "bound"):
        assert getattr(built, attr) == getattr(want, attr), attr
