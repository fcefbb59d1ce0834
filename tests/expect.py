"""<state| A |state> for a Dicke state, the tests' one expectation-value
helper; the library's probes take their expectations inline."""

import numpy as np


def expectation(state, op_full):
    """<state| A |state> for a lifted (sparse or dense) operator."""
    v = state.vector
    return complex(np.vdot(v, op_full @ v))
