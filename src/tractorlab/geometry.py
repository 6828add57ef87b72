"""Metric-level tensors: vielbein, Christoffel, curvature, Schouten/Cotton/Weyl,
spin connection, and covariant derivatives, all evaluated through jets at a
point or a batch of points (..., n); the batch axes lead every tensor.

Index conventions (storage order):
    gamma[alpha, mu, nu]          Gamma^alpha_{mu nu}
    riemann[rho, sigma, mu, nu]   R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - ...
    schouten[mu, nu]              P_{mu nu} = -1/(n-2) (R_{mu nu} - R/(2(n-1)) g_{mu nu})
    nabla_schouten[lam, mu, nu]   covariant d_lam P_{mu nu}
    cotton[mu, lam, nu]           C_{mu lam, nu} = nabla_mu P_{lam nu} - nabla_lam P_{mu nu}
    weyl[rho, sigma, mu, nu]      trace-free part of Riemann (one index up)
    spin[mu, a, b]                A^a_{b mu} = e^a_nu (d_mu e^nu_b + Gamma^nu_{mu lam} e^lam_b)

Cotton is stored in 2-form components over (mu, lam); the sign convention is
pinned by the structure-equation and commutator cross-checks in the cartan and
tractor suites.

Each jet is a per-order read (`gamma(k)`, `riemann(k)`, `schouten(k)`,
`spin(k)`, `e(k)`, `ginv(k)`, ...) under the memo rule `fields.per_order`: a
read at order k truncates a memoised jet of that order or higher, and
otherwise builds it in the order-k algebra, from inputs read at the orders it
needs (Gamma at k from g at k + 1, Riemann at k from Gamma at k + 1, the spin
connection at k from e at k + 1).  g itself is evaluated once, at order 3.
The vielbein is the triangular frame e^a_mu = sqrt(eta_a d_a) L_{mu a} of
g = L D L^T, factored in outer-product form (per pivot, one column of L and one
update of the trailing block), and its inverse is e^-1 = g^-1 e^T eta, so g is
the only matrix inverted by Newton steps.  Only the dressings (through `col0`)
and the frame check read e at order 3.
"""

from __future__ import annotations

from functools import cached_property, wraps

import numpy as np

from . import jets
from .fields import first_point, per_order
from .metrics import MetricError


class FrameError(MetricError):
    """The metric has no frame of its signature at a point: bad input, not a failed law."""

    def __init__(self, pivot, value, expected_sign, point):
        self.pivot = pivot
        self.point = point
        super().__init__(
            f"vielbein factorization at point {point}: pivot {pivot} has value {value:.3e}, "
            f"sign disagrees with eta entry {expected_sign:+.0f}"
        )


def _jet(build):
    """The per-order read geom.name(order) of the jet that build(geom, k) makes."""
    @wraps(build)
    def read(self, order):
        return self._per_order(build.__name__, order, lambda k: build(self, k))
    return read


class Geometry:
    """Lazy cache of the curvature pipeline of one metric at a point or a batch
    of points (..., n); every tensor carries the batch axes in front."""

    def __new__(cls, metric, point):
        # memoized per metric for its latest batch only: the fields of one check
        # evaluate the same batch one after another, and no lookup reaches back
        # to an earlier batch
        point = np.array(point, dtype=float)
        key = (point.shape, point.tobytes())
        memo = getattr(metric, "_geometry", None)
        if memo is not None and memo[0] == key:
            return memo[1]
        self = super().__new__(cls)
        self.metric = metric
        self.point = point
        self.n = metric.n
        self.eta = metric.eta
        self._memo = {}  # name -> {order: jet}
        metric._geometry = (key, self)
        return self

    def release(self):
        """Empty its metric's memo if it still holds this Geometry, for a batch that
        is evaluated once."""
        if getattr(self.metric, "_geometry", (None, None))[1] is self:
            del self.metric._geometry

    def alg(self, order):
        return jets.algebra(self.n, order)

    # -- metric jets ---------------------------------------------------------

    @cached_property
    def g3(self):
        g = self.metric.g(self.point, 3)
        g.flags.writeable = False  # shared by every field that reads this Geometry
        return g

    def g(self, order):
        return self.alg(3).truncate(self.g3, order)

    def _per_order(self, name, order, build):
        """Read the jet `name` at order `order` by the memo rule `fields.per_order`."""
        return per_order(self._memo.setdefault(name, {}), self.n, order, build)

    @_jet
    def ginv(self, k):
        """Inverse metric g^{mu nu} with order-k jets."""
        return self.alg(k).inv_matrix(self.g(k))

    # -- frame ----------------------------------------------------------------

    def _ldl(self, order):
        """Signature-aware LDL^T of g(order) with jets: g = L D L^T, pivots in chart
        order, in the order-`order` algebra.  Outer-product form: each pivot
        scales its column into L and updates the trailing block, one broadcast
        product each.

        A pivot whose sign disagrees with eta fails its point, which then
        divides by a stand-in pivot so that the rest of the batch factors; the
        first failing point of the batch is reported with its first bad pivot.
        """
        n, alg = self.n, self.alg(order)
        a = self.g(order).copy()  # reduced in place to the trailing blocks
        L = alg.const(np.broadcast_to(np.eye(n), a.shape[:-1]))
        d = []
        bad_pivot = np.full(a.shape[:-3], -1)
        bad_value = np.zeros(a.shape[:-3])
        for k in range(n):
            dk = a[..., k, k, :]
            bad = np.sign(dk[..., 0]) != self.eta[k, k]
            if bad.any():
                first = bad & (bad_pivot < 0)
                bad_pivot[first] = k
                bad_value[first] = dk[..., 0][first]
                dk[bad] = alg.const(self.eta[k, k])
            d.append(dk)
            if k + 1 < n:  # the last pivot has no column below it
                col = a[..., k + 1:, k, :]
                L[..., k + 1:, k, :] = alg.mul(col, alg.reciprocal(dk)[..., None, :])
                a[..., k + 1:, k + 1:, :] -= alg.mul(L[..., k + 1:, k, None, :],
                                                     col[..., None, :, :])
        failed = bad_pivot >= 0
        if failed.any():
            idx = np.unravel_index(np.argmax(failed), failed.shape)
            k = int(bad_pivot[idx])
            raise FrameError(k, float(bad_value[idx]), self.eta[k, k],
                             first_point(self.point, failed))
        return L, d

    @_jet
    def e(self, k):
        """Vielbein e^a_mu with e^T eta e = g, order-k jets; deterministic
        triangular choice."""
        L, d = self._ldl(k)
        alg = self.alg(k)
        root = alg.sqrt(np.diag(self.eta)[:, None] * np.stack(d, axis=-2))  # [..., a]
        return alg.mul(root[..., :, None, :], np.swapaxes(L, -3, -2))  # root_a L[mu, a]

    @_jet
    def einv(self, k):
        """Inverse vielbein e^mu_a = g^{mu nu} e^b_nu eta_ba (from e^T eta e = g), stored
        einv[mu, a], with order-k jets."""
        e_t = np.swapaxes(self.e(k), -3, -2)
        return self.alg(k).matmul(self.ginv(k), e_t) * np.diag(self.eta)[:, None]

    # -- connection and curvature ---------------------------------------------
    # A builder reads its inputs at order k + 1 before those at order k, which
    # then truncate them rather than build again.

    @_jet
    def gamma(self, k):
        """Christoffel symbols with order-k jets, from g at order k + 1."""
        alg, n = self.alg(k), self.n
        dg = self.alg(k + 1).grad(self.g(k + 1), 2)  # [..., mu, b, nu]
        t = np.einsum("...mbnc->...bmnc", dg) + np.einsum("...nbmc->...bmnc", dg) - dg
        flat = np.ascontiguousarray(t.reshape(t.shape[:-4] + (n, n * n, alg.ncoef)))
        out = alg.matmul(self.ginv(k), flat)
        return 0.5 * out.reshape(t.shape)

    @_jet
    def riemann(self, k):
        """R^rho_{sigma mu nu} with order-k jets, from Gamma at order k + 1."""
        alg, n = self.alg(k), self.n
        dgam = self.alg(k + 1).grad(self.gamma(k + 1), 3)
        dterm = np.einsum("...mrnsc->...rsmnc", dgam) - np.einsum("...nrmsc->...rsmnc", dgam)
        gam = self.gamma(k)
        lead = gam.shape[:-4]
        a = np.ascontiguousarray(gam.reshape(lead + (n * n, n, alg.ncoef)))  # [(rho,mu), lam]
        b = np.ascontiguousarray(gam.reshape(lead + (n, n * n, alg.ncoef)))  # [lam, (nu,sigma)]
        gg = alg.matmul(a, b).reshape(gam.shape[:-1] + (n, alg.ncoef))  # [rho, mu, nu, sigma]
        ggterm = np.einsum("...rmnsc->...rsmnc", gg) - np.einsum("...rnmsc->...rsmnc", gg)
        return dterm + ggterm

    @_jet
    def ricci(self, k):
        return np.einsum("...msmnc->...snc", self.riemann(k))

    @_jet
    def scalar(self, k):
        ricci = self.ricci(k)
        return self.alg(k).mul(self.ginv(k), ricci).sum(axis=(-3, -2))

    @_jet
    def schouten(self, k):
        n, alg = self.n, self.alg(k)
        trace_part = alg.mul((self.scalar(k) / (2.0 * (n - 1.0)))[..., None, None, :], self.g(k))
        return (-1.0 / (n - 2.0)) * (self.ricci(k) - trace_part)

    @_jet
    def schouten_trace(self, k):
        schouten = self.schouten(k)
        return self.alg(k).mul(self.ginv(k), schouten).sum(axis=(-3, -2))

    @_jet
    def schouten_up(self, k):
        """P^rho_mu = g^{rho beta} P_{beta mu}."""
        schouten = self.schouten(k)
        return self.alg(k).matmul(self.ginv(k), schouten)

    @_jet
    def weyl_jet(self, k):
        """W^rho_{sigma mu nu} with order-k jets; totally trace-free."""
        n, alg = self.n, self.alg(k)
        delta = np.eye(n)
        P, Pup, g = self.schouten(k), self.schouten_up(k), self.g(k)
        w = self.riemann(k).copy()
        w += np.einsum("rm,...nsc->...rsmnc", delta, P)
        w -= np.einsum("rn,...msc->...rsmnc", delta, P)
        w += alg.mul(Pup[..., :, None, :, None, :], g[..., None, :, None, :, :])  # P^r_m g_{s n}
        w -= alg.mul(Pup[..., :, None, None, :, :], g[..., None, :, :, None, :])  # P^r_n g_{s m}
        return w

    @_jet
    def spin(self, k):
        """Spin connection A^a_{b mu}, stored [mu, a, b], order-k jets, from e at k + 1.

        With e d_mu(e^-1) = -(d_mu e) e^-1 it is A_mu = (e Gamma_mu - d_mu e) e^-1:
        two batched products, every direction mu one slice of each.
        """
        alg = self.alg(k)
        de = self.alg(k + 1).grad(self.e(k + 1), 2)  # [mu, a, lam] = d_mu e^a_lam
        gam = np.einsum("...nmlc->...mnlc", self.gamma(k))  # [mu, nu, lam] = Gamma^nu_{mu lam}
        eg = alg.matmul(self.e(k)[..., None, :, :, :], gam)  # e^a_nu Gamma^nu_{mu lam}
        return alg.matmul(eg - de, self.einv(k)[..., None, :, :, :])

    # the fixed-order reads of the benchmark's probes
    gamma2 = property(lambda self: self.gamma(2))
    riemann1 = property(lambda self: self.riemann(1))
    ricci1 = property(lambda self: self.ricci(1))
    schouten1 = property(lambda self: self.schouten(1))
    weyl = property(lambda self: self.alg(0).value(self.weyl_jet(0)))

    @cached_property
    def nabla_schouten(self):
        """Covariant d_lam P_{mu nu} (values), stored [lam, mu, nu]."""
        return self.alg(0).value(self.covariant_derivative(self.schouten(1), "dd"))

    @cached_property
    def cotton(self):
        """C_{mu lam, nu} (values), antisymmetric in (mu, lam)."""
        ns = self.nabla_schouten
        return ns - np.swapaxes(ns, -3, -2)

    # -- covariant derivative ---------------------------------------------------

    def covariant_derivative(self, tensor, valences):
        """Levi-Civita covariant derivative of a covariant tensor; the new (derivative)
        index comes first, after the batch axes.

        `tensor` is a jet array with the batch axes, one axis per tensor index
        and the trailing coefficient axis; `valences` is a string of 'd', one
        per (lower) index ('' for a scalar).  The output order is one below the
        input order.
        """
        tensor = np.asarray(tensor)
        nb = self.point.ndim - 1
        k = self._order_of(tensor)
        if tensor.ndim - 1 - nb != len(valences) or valences.strip("d"):
            raise MetricError(f"tensor has {tensor.ndim - 1 - nb} index axes but valence "
                              f"string is {valences!r} (one 'd' per lower index)")
        if k < 1:
            raise MetricError("covariant derivative needs at least order-1 jets")
        alg_in, alg_out = self.alg(k), self.alg(k - 1)
        out = alg_in.grad(tensor, len(valences))
        if not valences:
            return out
        t_low = alg_in.truncate(tensor, k - 1)
        # [..., lam, i, mu] = Gamma^lam_{mu i}, padded to broadcast over the other indices
        gam = np.swapaxes(self.gamma(k - 1), -3, -2)
        blocks = gam.reshape(gam.shape[:-1] + (1,) * (t_low.ndim - nb - 2) + gam.shape[-1:])
        for slot in range(len(valences)):
            moved = np.moveaxis(t_low, nb + slot, nb)  # [..., lam, rest..., NC]
            corr = alg_out.mul(blocks, np.expand_dims(moved, (nb + 1, nb + 2))).sum(axis=nb)
            out = out - np.moveaxis(np.swapaxes(corr, nb, nb + 1), nb + 1, nb + slot + 1)
        return out

    def laplacian(self, scalar_jets):
        """Delta f = g^{mu nu} (d_mu d_nu f - Gamma^lam_{mu nu} d_lam f)."""
        scalar_jets = np.asarray(scalar_jets)
        k = self._order_of(scalar_jets)
        if k < 2:
            raise MetricError("laplacian needs at least order-2 jets")
        alg = self.alg(k)
        grad = alg.grad(scalar_jets, 0)
        hess = self.alg(k - 1).grad(grad, 1)  # [..., mu, nu]
        alg2 = self.alg(k - 2)
        gam = self.gamma(k - 2)
        grad2 = self.alg(k - 1).truncate(grad, k - 2)
        term = hess - alg2.mul(gam, grad2[..., :, None, None, :]).sum(axis=-4)
        return alg2.mul(self.ginv(k - 2), term).sum(axis=(-3, -2))

    def _order_of(self, arr):
        nc = np.asarray(arr).shape[-1]
        for k in range(jets.MAX_ORDER + 1):
            if jets.algebra(self.n, k).ncoef == nc:
                return k
        raise MetricError(f"coefficient axis of length {nc} matches no jet order")

