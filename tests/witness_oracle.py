"""Reference route for the tests: the explicit unimodular witnesses.

The package certifies a linearization on the factor identities of its
block-Kronecker form (reduction._KronForm.certify) and assembles no E or
F.  The tests build here the witnesses E = T*diag(E_K, I)*C and
F = B*F_K those identities imply, and verify them over QQ[l] with
reduction.verify_witnesses, as the certificate's oracle.
"""

import numpy as np

from matpencil.errors import PreconditionError
from matpencil.field import FIELD_RATIONAL
from matpencil.matpoly import MatPoly, block_apply, lambda_vec, shear_s
from matpencil.reduction import _kron_form, verify_witnesses
from matpencil.spaces import AnsatzPencil


def witnesses(form):
    """E = T*diag(E_K, I)*C and F = B*F_K of a _KronForm, with E_K and F_K
    as in _KronForm.certify and C = diag(I_m, W)^-1 * D^-1 * S; raise
    PreconditionError unless form.nonsingular()."""
    if not form.nonsingular():
        raise PreconditionError("a constant factor is singular")
    field, m, n = FIELD_RATIONAL, form.top.m, form.n
    k = form.top.n // n
    core = field.eye(form.pencil.m)
    core[m:, m:] = form.W
    c = field.inv(core if form.D is None else form.D @ core)
    if form.M is not None:  # c * (M kron I)
        c = block_apply(form.M.T, c.T).T
    lam, g = lambda_vec(k, n, field), shear_s(k, n, field)
    f = [np.hstack([field.div(lam.coeff(i), form.alpha),
                    g.coeff(i)])[form.b]
         for i in range(k)]
    e = [c[form.t]] + [field.zeros(*c.shape) for _ in range(k - 1)]
    lower = c[m:m + (k - 1) * n]
    for coeff, block in zip(e, form.top.matmul(g).coeffs):
        coeff[:m] -= block @ lower
    return MatPoly(e, field), MatPoly(f, field)


def _witness_pair(form, transposed: bool):
    e, f = witnesses(form)
    return (f.transpose(), e.transpose()) if transposed else (e, f)


def linearization_witnesses(obj, p: MatPoly, strong: bool = False):
    """Unverified witnesses (pencil, polynomial, E, F) for a member or a
    trimming record built from p, then for the reversals when strong; None
    when no witness can be built (a bare pencil, a deficient Z, a record
    or member of another polynomial, a zero alpha, a singular constant
    factor)."""
    try:
        form, transposed = _kron_form(obj, p)
    except PreconditionError:
        return None
    if not form.nonsingular():
        return None
    pen = obj.pencil if isinstance(obj, AnsatzPencil) else obj.Lt
    out = [(pen, p, *_witness_pair(form, transposed))]
    if strong:
        out.append((pen.reversal(), p.reversal(),
                    *_witness_pair(form.reversal(), transposed)))
    return out


def g_lin_witnesses(l: AnsatzPencil):
    """Unimodular E, F with E*L*F = diag(P, I_{k-1} kron I_{m,n}),
    constructed explicitly and verified symbolically. Exact field only:
    _kron_form refuses another."""
    e, f = _witness_pair(*_kron_form(l, l.poly))
    verify_witnesses(l.pencil, l.poly, e, f)
    return e, f
