"""The tape-safety guard, a fixture for tests that train or differentiate.

``backward`` stores the first gradient a VJP returns for a tensor as it is
and adds later ones into it in place, and the VJPs and Adam write some of
their arrays in place too. Those writes are safe only if no VJP output is an
array that a node saved, or one that another gradient also holds. The
``tape_guard`` fixture checks both while a test runs:

- every recorded node's output, its non-Parameter inputs and the arrays its
  VJP closes over are made read-only until ``backward`` returns, so a write
  into any of them raises; a closure array can be a Parameter's own value,
  which Adam updates in place after ``backward``, so the arrays are made
  writeable again when it returns;
- each gradient a VJP hands to ``_accumulate`` must be writeable and share
  no memory with another gradient of the same call or with any gradient
  already pending in ``backward``'s mapping (the Parameters' included).
"""

import weakref

import numpy as np
import pytest

import ncgc.numerics as nm


def _closure_arrays(fn):
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # a name the VJP binds later
            continue
        if isinstance(value, np.ndarray):
            yield value


@pytest.fixture
def tape_guard(monkeypatch):
    frozen = []  # weak references: the guard must not keep a freed node's arrays alive
    real_record, real_accumulate, real_backward = nm._record, nm._accumulate, nm.backward

    def freeze(a):
        if a.flags.writeable:
            a.flags.writeable = False
            frozen.append(weakref.ref(a))

    def thaw():
        arrays = [a for a in (r() for r in frozen) if a is not None]
        frozen.clear()
        # owners first: a view can be made writeable only while its base is
        for a in sorted(arrays, key=lambda a: a.base is not None):
            a.flags.writeable = True

    def record(out, inputs, vjp):
        tape = nm._ACTIVE_TAPE
        before = len(tape.nodes) if tape is not None else 0
        result = real_record(out, inputs, vjp)
        if tape is not None and len(tape.nodes) > before:
            freeze(out.value)
            for t in inputs:
                if isinstance(t, nm.Tensor) and not isinstance(t, nm.Parameter):
                    freeze(t.value)
            for a in _closure_arrays(vjp):
                freeze(a)
        return result

    def accumulate(grads, inputs, input_grads):
        live = [g for t, g in zip(inputs, input_grads)
                if g is not None and isinstance(t, nm.Tensor)]
        for i, g in enumerate(live):
            assert g.flags.writeable, "a VJP returned a read-only array, one a node saved"
            assert not any(np.shares_memory(g, other) for other in live[i + 1:]), \
                "two gradients of one VJP share memory"
            assert not any(np.shares_memory(g, stored) for stored in grads.values()), \
                "a VJP gradient shares memory with a pending gradient"
        return real_accumulate(grads, inputs, input_grads)

    def backward(tape, loss):
        try:
            return real_backward(tape, loss)
        finally:
            thaw()

    monkeypatch.setattr(nm, "_record", record)
    monkeypatch.setattr(nm, "_accumulate", accumulate)
    monkeypatch.setattr(nm, "backward", backward)
    yield
    thaw()
