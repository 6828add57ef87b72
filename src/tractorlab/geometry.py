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

Each tensor is built at the jet order its readers need: g at order 3, Gamma at
2, the spin connection and curvature at 1.  The vielbein and the inverses are
built per order read (`e(k)`, `einv(k)`, `ginv(k)`): a read truncates a
memoised jet of that order or higher, and otherwise builds it in the order-k
algebra, because an order-3 jet costs several times an order-2 one.
The vielbein is the triangular frame e^a_mu = sqrt(eta_a d_a) L_{mu a} of
g = L D L^T, factored in outer-product form (per pivot, one column of L and one
update of the trailing block), and its inverse is e^-1 = g^-1 e^T eta, so g is
the only matrix inverted by Newton steps.  The connection reads e at order 2 or
less, and only its first column (`col0`, which the dressings read) and the
frame check read e at order 3; only the frame check reads e^-1 and g^-1 at
order 3.
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
        self._memo = {"e": {}, "einv": {}, "ginv": {}}  # name -> {order: jet}
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
        """The memo rule of the per-order jets e, e^-1 and g^-1: a read at order k
        truncates a memoised jet of order >= k, and otherwise builds the jet at
        order k, in the order-k algebra, and memoises it read-only."""
        memo = self._memo[name]
        have = min((k for k in memo if k >= order), default=None)
        if have is None:
            memo[order] = build(order)
            memo[order].flags.writeable = False  # shared by every reader, like g3
            return memo[order]
        return self.alg(have).truncate(memo[have], order)

    def ginv(self, order):
        """Inverse metric g^{mu nu} with order-`order` jets."""
        return self._per_order("ginv", order, lambda k: self.alg(k).inv_matrix(self.g(k)))

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

    def _frame(self, order):
        L, d = self._ldl(order)
        alg = self.alg(order)
        root = alg.sqrt(np.diag(self.eta)[:, None] * np.stack(d, axis=-2))  # [..., a]
        return alg.mul(root[..., :, None, :], np.swapaxes(L, -3, -2))  # root_a L[mu, a]

    def e(self, order):
        """Vielbein e^a_mu with e^T eta e = g, order-`order` jets; deterministic
        triangular choice."""
        return self._per_order("e", order, self._frame)

    def einv(self, order):
        """Inverse vielbein e^mu_a = g^{mu nu} e^b_nu eta_ba (from e^T eta e = g), stored
        einv[mu, a], with order-`order` jets."""
        return self._per_order("einv", order, lambda k: self.alg(k).matmul(
            self.ginv(k), np.swapaxes(self.e(k), -3, -2)) * np.diag(self.eta)[:, None])

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
    def spin1(self):
        """Spin connection A^a_{b mu}, stored [mu, a, b], order-1 jets.

        With e d_mu(e^-1) = -(d_mu e) e^-1 it is A_mu = (e Gamma_mu - d_mu e) e^-1:
        two batched products, every direction mu one slice of each.
        """
        alg = self.alg(1)
        de = self.alg(2).grad(self.e(2), 2)  # [mu, a, lam] = d_mu e^a_lam
        gam = self.alg(2).truncate(self.gamma2, 1)
        gam = np.einsum("...nmlc->...mnlc", gam)  # [mu, nu, lam] = Gamma^nu_{mu lam}
        eg = alg.matmul(self.e(1)[..., None, :, :, :], gam)  # e^a_nu Gamma^nu_{mu lam}
        return alg.matmul(eg - de, self.einv(1)[..., None, :, :, :])

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
        gam = np.swapaxes(self.alg(2).truncate(self.gamma2, k - 1), -3, -2)
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

