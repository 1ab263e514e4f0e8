"""Second-order multivariate jets over the tangent-bundle chart.

A `MultiJet` carries a value, a gradient and a (symmetric) Hessian with
respect to the seven coordinates that an SO(3)-invariant function on the
tangent bundle can depend on::

    (t, r, theta, tdot, rdot, thetadot, phidot)

(phi never enters by symmetry).  All geometric evaluators build their
quantities out of MultiJet arithmetic, so vertical Hessians, mixed
horizontal/vertical derivatives and horizontal gradients are exact.

MultiJet stores the gradient and Hessian as numpy arrays and defines only
the ring operations and the chain rule ``_compose``; division, powers, the
function basis and their domain checks are the shared rules of
`scalar_field.JetRules`.  ``abs`` at zero raises `DomainError`: a MultiJet
does not record kinks.  (t, r)-fields enter through `from_jet2`, which places
a `Jet2` in the slots IT, IR.
"""

from __future__ import annotations

import numpy as np

from .scalar_field import Jet2, JetRules

VARS = ("t", "r", "theta", "tdot", "rdot", "thetadot", "phidot")
NVARS = len(VARS)
IT, IR, ITH, IDT, IDR, IDTH, IDPH = range(NVARS)
VERTICAL = (IDT, IDR, IDTH, IDPH)


class MultiJet(JetRules):
    __slots__ = ("value", "g", "H")

    def __init__(self, value: float, g=None, H=None):
        self.value = float(value)
        self.g = np.zeros(NVARS) if g is None else g
        self.H = np.zeros((NVARS, NVARS)) if H is None else H

    # -- constructors -------------------------------------------------------

    @staticmethod
    def variable(i: int, v: float) -> "MultiJet":
        g = np.zeros(NVARS)
        g[i] = 1.0
        return MultiJet(v, g)

    @staticmethod
    def from_jet2(j: Jet2) -> "MultiJet":
        """Lift a (t, r)-jet into the full chart (slots IT, IR)."""
        g = np.zeros(NVARS)
        g[IT] = j.dt
        g[IR] = j.dr
        H = np.zeros((NVARS, NVARS))
        H[IT, IT] = j.dtt
        H[IT, IR] = H[IR, IT] = j.dtr
        H[IR, IR] = j.drr
        return MultiJet(j.value, g, H)

    @staticmethod
    def seed_point(t, r, theta, tdot, rdot, thetadot, phidot):
        vals = (t, r, theta, tdot, rdot, thetadot, phidot)
        return tuple(MultiJet.variable(i, v) for i, v in enumerate(vals))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _lift(x):
        if isinstance(x, MultiJet):
            return x
        return MultiJet(x)

    def __add__(self, o):
        o = self._lift(o)
        return MultiJet(self.value + o.value, self.g + o.g, self.H + o.H)

    __radd__ = __add__

    def __neg__(self):
        return MultiJet(-self.value, -self.g, -self.H)

    def __mul__(self, o):
        o = self._lift(o)
        outer = np.outer(self.g, o.g)
        return MultiJet(
            self.value * o.value,
            self.g * o.value + o.g * self.value,
            self.H * o.value + o.H * self.value + outer + outer.T)

    __rmul__ = __mul__

    def _compose(self, v, d1, d2):
        return MultiJet(v, d1 * self.g, d1 * self.H + d2 * np.outer(self.g, self.g))

    def _is_constant(self) -> bool:
        return not self.g.any() and not self.H.any()

    # -- extraction helpers --------------------------------------------------

    def vertical_gradient(self) -> np.ndarray:
        """d L / d xdot^a, a = t, r, theta, phi."""
        return self.g[list(VERTICAL)].copy()

    def horizontal_gradient(self) -> np.ndarray:
        """d L / d x^a, a = t, r, theta, phi (phi identically zero)."""
        return np.array([self.g[IT], self.g[IR], self.g[ITH], 0.0])

    def metric_tensor(self) -> np.ndarray:
        """g_ab = (1/2) d^2 L / d xdot^a d xdot^b."""
        idx = list(VERTICAL)
        return 0.5 * self.H[np.ix_(idx, idx)]

    def mixed_block(self) -> np.ndarray:
        """Rows x^c in (t, r, theta, phi), columns xdot^b: d^2 L/dx^c dxdot^b."""
        idx = list(VERTICAL)
        out = np.zeros((4, 4))
        out[0] = self.H[IT, idx]
        out[1] = self.H[IR, idx]
        out[2] = self.H[ITH, idx]
        return out


def w2_jet(theta: MultiJet, thetadot: MultiJet, phidot: MultiJet) -> MultiJet:
    """w^2 = thetadot^2 + phidot^2 sin^2(theta)."""
    s = theta.sin()
    return thetadot * thetadot + phidot * phidot * s * s
