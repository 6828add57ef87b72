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

Each tensor is built at the jet order its readers need: g and e at order 3,
Gamma and the spin connection at 2, curvature at 1.  The inverses g^-1 and e^-1
are inverted separately at each order read (`ginv(k)`, `einv(k)`), because an
order-3 inverse costs several times an order-2 one and only the frame check
reads it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import jets
from .fields import first_point
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
        self._ginv, self._einv = {}, {}  # order -> inverse jet, filled on first read
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

    def ginv(self, order):
        """Inverse metric g^{mu nu} with order-`order` jets, inverted in that
        order's algebra (no higher order is computed) and memoised per order."""
        if order not in self._ginv:
            self._ginv[order] = self.alg(order).inv_matrix(self.g(order))
        return self._ginv[order]

    # -- frame ----------------------------------------------------------------

    @cached_property
    def _ldl(self):
        """Signature-aware LDL^T of g with jets: g = L D L^T, pivots in chart order.

        A pivot whose sign disagrees with eta fails its point, which then
        divides by a stand-in pivot so that the rest of the batch factors; the
        first failing point of the batch is reported with its first bad pivot.
        """
        n, alg = self.n, self.alg(3)
        a = self.g3
        L = alg.const(np.broadcast_to(np.eye(n), a.shape[:-1]))
        d = []
        bad_pivot = np.full(a.shape[:-3], -1)
        bad_value = np.zeros(a.shape[:-3])
        for k in range(n):
            dk = a[..., k, k, :].copy()
            for m in range(k):
                dk -= alg.mul(alg.mul(L[..., k, m, :], L[..., k, m, :]), d[m])
            bad = np.sign(dk[..., 0]) != self.eta[k, k]
            if bad.any():
                first = bad & (bad_pivot < 0)
                bad_pivot[first] = k
                bad_value[first] = dk[..., 0][first]
                dk[bad] = alg.const(self.eta[k, k])
            d.append(dk)
            for i in range(k + 1, n):
                num = a[..., i, k, :].copy()
                for m in range(k):
                    num -= alg.mul(alg.mul(L[..., i, m, :], L[..., k, m, :]), d[m])
                L[..., i, k, :] = alg.div(num, dk)
        failed = bad_pivot >= 0
        if failed.any():
            idx = np.unravel_index(np.argmax(failed), failed.shape)
            k = int(bad_pivot[idx])
            raise FrameError(k, float(bad_value[idx]), self.eta[k, k],
                             first_point(self.point, failed))
        return L, d

    @cached_property
    def e3(self):
        """Vielbein e^a_mu with e^T eta e = g; deterministic triangular choice."""
        L, d = self._ldl
        alg = self.alg(3)
        root = alg.sqrt(np.diag(self.eta)[:, None] * np.stack(d, axis=-2))  # [..., a]
        return alg.mul(root[..., :, None, :], np.swapaxes(L, -3, -2))  # root_a L[mu, a]

    def e(self, order):
        return self.alg(3).truncate(self.e3, order)

    def einv(self, order):
        """Inverse vielbein e^mu_a, stored einv[mu, a], with order-`order` jets;
        inverted in that order's algebra and memoised per order, like `ginv`."""
        if order not in self._einv:
            self._einv[order] = self.alg(order).inv_matrix(self.e(order))
        return self._einv[order]

    # -- connection and curvature ---------------------------------------------

    @cached_property
    def gamma2(self):
        """Christoffel symbols with order-2 jets."""
        alg, n = self.alg(2), self.n
        dg = self.alg(3).grad(self.g3, 2)  # [..., mu, b, nu]
        t = np.einsum("...mbnc->...bmnc", dg) + np.einsum("...nbmc->...bmnc", dg) - dg
        flat = np.ascontiguousarray(t.reshape(t.shape[:-4] + (n, n * n, alg.ncoef)))
        out = alg.matmul(self.ginv(2), flat)
        return 0.5 * out.reshape(t.shape)

    @cached_property
    def riemann1(self):
        """R^rho_{sigma mu nu} with order-1 jets."""
        alg, n = self.alg(1), self.n
        dgam = self.alg(2).grad(self.gamma2, 3)
        dterm = np.einsum("...mrnsc->...rsmnc", dgam) - np.einsum("...nrmsc->...rsmnc", dgam)
        gam = self.alg(2).truncate(self.gamma2, 1)
        lead = gam.shape[:-4]
        a = np.ascontiguousarray(gam.reshape(lead + (n * n, n, alg.ncoef)))  # [(rho,mu), lam]
        b = np.ascontiguousarray(gam.reshape(lead + (n, n * n, alg.ncoef)))  # [lam, (nu,sigma)]
        gg = alg.matmul(a, b).reshape(gam.shape[:-1] + (n, alg.ncoef))  # [rho, mu, nu, sigma]
        ggterm = np.einsum("...rmnsc->...rsmnc", gg) - np.einsum("...rnmsc->...rsmnc", gg)
        return dterm + ggterm

    @cached_property
    def ricci1(self):
        return np.einsum("...msmnc->...snc", self.riemann1)

    @cached_property
    def scalar1(self):
        return self.alg(1).mul(self.ginv(1), self.ricci1).sum(axis=(-3, -2))

    @cached_property
    def schouten1(self):
        n, alg = self.n, self.alg(1)
        trace_part = alg.mul((self.scalar1 / (2.0 * (n - 1.0)))[..., None, None, :], self.g(1))
        return (-1.0 / (n - 2.0)) * (self.ricci1 - trace_part)

    @cached_property
    def schouten_trace1(self):
        return self.alg(1).mul(self.ginv(1), self.schouten1).sum(axis=(-3, -2))

    @cached_property
    def schouten_up1(self):
        """P^rho_mu = g^{rho beta} P_{beta mu}."""
        return self.alg(1).matmul(self.ginv(1), self.schouten1)

    @cached_property
    def nabla_schouten(self):
        """Covariant d_lam P_{mu nu} (values), stored [lam, mu, nu]."""
        return self.alg(0).value(self.covariant_derivative(self.schouten1, "dd"))

    @cached_property
    def cotton(self):
        """C_{mu lam, nu} (values), antisymmetric in (mu, lam)."""
        ns = self.nabla_schouten
        return ns - np.swapaxes(ns, -3, -2)

    @cached_property
    def weyl1(self):
        """W^rho_{sigma mu nu} with order-1 jets; totally trace-free."""
        n, alg = self.n, self.alg(1)
        delta = np.eye(n)
        P, Pup, g = self.schouten1, self.schouten_up1, self.g(1)
        w = self.riemann1.copy()
        w += np.einsum("rm,...nsc->...rsmnc", delta, P)
        w -= np.einsum("rn,...msc->...rsmnc", delta, P)
        w += alg.mul(Pup[..., :, None, :, None, :], g[..., None, :, None, :, :])  # P^r_m g_{s n}
        w -= alg.mul(Pup[..., :, None, None, :, :], g[..., None, :, :, None, :])  # P^r_n g_{s m}
        return w

    @cached_property
    def weyl(self):
        return self.alg(1).value(self.weyl1)

    @cached_property
    def spin2(self):
        """Spin connection A^a_{b mu}, stored [mu, a, b], order-2 jets.

        With e d_mu(e^-1) = -(d_mu e) e^-1 it is A_mu = (e Gamma_mu - d_mu e) e^-1:
        two batched products, every direction mu one slice of each.
        """
        alg = self.alg(2)
        de = self.alg(3).grad(self.e3, 2)  # [mu, a, lam] = d_mu e^a_lam
        gam = np.einsum("...nmlc->...mnlc", self.gamma2)  # [mu, nu, lam] = Gamma^nu_{mu lam}
        eg = alg.matmul(self.e(2)[..., None, :, :, :], gam)  # e^a_nu Gamma^nu_{mu lam}
        return alg.matmul(eg - de, self.einv(2)[..., None, :, :, :])

    # -- covariant derivative ---------------------------------------------------

    def covariant_derivative(self, tensor, valences):
        """Levi-Civita covariant derivative; the new (derivative) index comes first,
        after the batch axes.

        `tensor` is a jet array with the batch axes, one axis per tensor index
        and the trailing coefficient axis; `valences` is a string of 'u'/'d'
        per index ('' for a scalar).  The output order is one below the input
        order.
        """
        tensor = np.asarray(tensor)
        nb = self.point.ndim - 1
        k = self._order_of(tensor)
        if tensor.ndim - 1 - nb != len(valences):
            raise MetricError(
                f"tensor has {tensor.ndim - 1 - nb} index axes but valence string is {valences!r}"
            )
        if k < 1:
            raise MetricError("covariant derivative needs at least order-1 jets")
        alg_in, alg_out = self.alg(k), self.alg(k - 1)
        out = alg_in.grad(tensor, len(valences))
        if not valences:
            return out
        t_low = alg_in.truncate(tensor, k - 1)
        gam = self.alg(2).truncate(self.gamma2, k - 1)
        for slot, val in enumerate(valences):
            moved = np.moveaxis(t_low, nb + slot, nb)  # [..., lam, rest..., NC]
            if val == "u":
                blocks = np.moveaxis(gam, -2, -4)  # [..., lam, i, mu] = Gamma^i_{mu lam}
            else:
                blocks = np.swapaxes(gam, -3, -2)  # [..., lam, i, mu] = Gamma^lam_{mu i}
            pad = (1,) * (moved.ndim - nb - 2)
            blocks = blocks.reshape(blocks.shape[:-1] + pad + blocks.shape[-1:])
            corr = alg_out.mul(blocks, np.expand_dims(moved, (nb + 1, nb + 2))).sum(axis=nb)
            corr = np.moveaxis(np.swapaxes(corr, nb, nb + 1), nb + 1, nb + slot + 1)
            out = out + corr if val == "u" else out - corr
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
        gam = self.alg(2).truncate(self.gamma2, k - 2)
        grad2 = self.alg(k - 1).truncate(grad, k - 2)
        term = hess - alg2.mul(gam, grad2[..., :, None, None, :]).sum(axis=-4)
        return alg2.mul(self.ginv(k - 2), term).sum(axis=(-3, -2))

    def _order_of(self, arr):
        nc = np.asarray(arr).shape[-1]
        for k in range(jets.MAX_ORDER + 1):
            if jets.algebra(self.n, k).ncoef == nc:
                return k
        raise MetricError(f"coefficient axis of length {nc} matches no jet order")

