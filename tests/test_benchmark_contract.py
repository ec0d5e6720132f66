"""The names the benchmark's measured child (``perfbench/child.py``) reaches
into: every attribute it reads of ``ortus`` and of its modules, each layer
entry point it wraps, and ``NetView.of`` on a built connectome, which its
traced runs call to count what the learning rule saw;
and that ``protocol.run`` reaches the wrapped kernel, plasticity and
physiology names on every step it computes.  Steps it fast-forwards over an
exact repeat call no layer; the bundled conditioned protocol never repeats,
so there every step is computed.

The child is loaded as a module without running its ``main``, and without
a bytecode cache, so nothing under ``perfbench/`` is written.
"""

import ast
import types
from pathlib import Path

import numpy as np

import ortus
from ortus import physiology, protocol

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_every_ortus_name_the_child_reads_still_exists(load_perfbench):
    """Each attribute chain the child's source starts at a name bound to
    ``ortus`` or one of its modules (``ortus.run``, ``protocol.TraceLog``,
    ``cli.main``, ...) resolves, so trimming a module or the package's
    re-exports cannot break the benchmark unseen."""
    child = load_perfbench("child")
    roots = {
        name: value
        for name, value in vars(child).items()
        if isinstance(value, types.ModuleType) and value.__name__.split(".")[0] == "ortus"
    }
    assert {"ortus", "protocol", "cli"} <= set(roots)
    checked = set()
    for node in ast.walk(ast.parse(CHILD.read_text())):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if not chain or not isinstance(base, ast.Name) or base.id not in roots:
            continue
        owner = roots[base.id]
        for depth, attr in enumerate(chain, start=1):
            dotted = ".".join([base.id, *chain[:depth]])
            assert hasattr(owner, attr), f"perfbench/child.py reads {dotted}, which no longer exists"
            owner = getattr(owner, attr)
            checked.add(dotted)
    for name in ("ortus.parse_source", "ortus.Query", "ortus.H_LEN", "protocol.metrics_csv", "cli.main"):
        assert name in checked


def test_every_wrapped_layer_entry_point_exists(load_perfbench):
    child = load_perfbench("child")
    for name, targets in child.LAYERS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
    assert callable(child.protocol.run)


def test_netview_of_a_built_connectome(organism_net, load_perfbench):
    view = load_perfbench("child").ortus.NetView.of(organism_net)
    assert view.n == organism_net.n
    np.testing.assert_array_equal(view.syn_pre, [s.pre for s in organism_net.chem])
    np.testing.assert_array_equal(view.syn_mi, [s.mutability for s in organism_net.chem])


def test_the_loop_calls_each_traced_layer_through_its_module_every_step(
    organism_net, conditioning_protocol_path, monkeypatch
):
    """The child times the kernel, plasticity and physiology by rebinding
    these module attributes, so ``protocol.run`` has to look them up at call
    time, once per step it computes (plasticity once ``H_LEN`` steps are
    written).  The conditioned run repeats no state, so it computes them all."""
    calls = []
    counts = {"metabolic_step": 0, "lung_exchange": 0}

    def spy(owner, name, record):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            record()
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("step", "plasticity_step"):
        spy(protocol, name, lambda name=name: calls.append(name))
    for name in counts:
        spy(physiology, name, lambda name=name: counts.__setitem__(name, counts[name] + 1))

    prot = protocol.load_protocol(conditioning_protocol_path, organism_net)
    protocol.run(organism_net, prot)
    total = prot.total_steps
    assert total == 700
    warm = ortus.H_LEN
    assert calls == ["step"] * warm + ["plasticity_step"] + ["step", "plasticity_step"] * (total - warm)
    assert counts == {"metabolic_step": total, "lung_exchange": total}
