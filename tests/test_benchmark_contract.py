"""The names the benchmark's measured child (``perfbench/child.py``) reaches
into: each layer entry point it wraps, and ``NetView.of`` on a built
connectome, which its traced runs call to count what the learning rule saw;
and that ``protocol.run`` reaches the wrapped kernel, plasticity and
physiology names on every step it computes.  Steps it fast-forwards over an
exact repeat call no layer; the bundled conditioned protocol never repeats,
so there every step is computed.

The child is loaded as a module without running its ``main``, and without
a bytecode cache, so nothing under ``perfbench/`` is written.
"""

import numpy as np

import ortus
from ortus import physiology, protocol


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
    time, once per step it computes (plasticity once the history ring is
    full).  The conditioned run repeats no state, so it computes them all."""
    seen = {"step": [], "plasticity_step": [], "metabolic_step": 0, "lung_exchange": 0}

    def spy(owner, name, record):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            record(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(protocol, "step", lambda args: seen["step"].append(args[0].step))
    spy(protocol, "plasticity_step", lambda args: seen["plasticity_step"].append(args[0].step))
    for name in ("metabolic_step", "lung_exchange"):
        spy(physiology, name, lambda args, name=name: seen.__setitem__(name, seen[name] + 1))

    prot = protocol.load_protocol(conditioning_protocol_path, organism_net)
    protocol.run(organism_net, prot)
    total = prot.total_steps
    assert seen["step"] == list(range(total))
    assert seen["plasticity_step"] == list(range(ortus.H_LEN, total + 1))
    assert seen["metabolic_step"] == seen["lung_exchange"] == total
