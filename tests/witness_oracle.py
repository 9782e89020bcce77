"""Reference route for the tests: the explicit unimodular witnesses.

The package certifies a linearization on the factor identities of its
block-Kronecker form (reduction._KronForm.certify) and assembles no E or
F.  The tests build here the witnesses E = T*diag(E_K, I)*C and
F = B*F_K those identities imply, and verify them over QQ[l] with
reduction.verify_witnesses, as the certificate's oracle.  The package
takes a strong linearization from the forward identities alone (Dopico,
Lawrence, Perez & Van Dooren, Numer. Math. 140, 2018); the oracle builds
the reversal's form as well, with its column permutation B, and verifies
its witnesses against rev P, independently of that theorem.
"""

import numpy as np

from matpencil.errors import PreconditionError
from matpencil.field import FIELD_RATIONAL
from matpencil.matpoly import MatPoly, block_apply, lambda_vec, shear_s
from matpencil.reduction import _KronForm, _kron_form, verify_witnesses
from matpencil.spaces import AnsatzPencil


def _block_flip(k: int, n: int) -> np.ndarray:
    """Row order that reverses the k blocks of n rows: x[_block_flip(k, n)]
    is x with its blocks in the opposite order."""
    return np.arange(k * n).reshape(k, n)[::-1].ravel()


def reversal(form):
    """The form of rev L against rev P and the column order b it needs:
    rev H = -Pi*H*flip with Pi the block flip of H's rows, so
    rev(S*L)*B = D*diag(I, W')*[K'; 0] with B*x = x[flip],
    K' = [rev(top)*flip; H] and W' = W*diag(-Pi, I)."""
    n = form.n
    k = form.top.n // n
    flip = _block_flip(k, n)
    top = MatPoly([x[:, flip] for x in form.top.reversal().coeffs],
                  form.top.field)
    rev = _KronForm(form.pencil.reversal(), form.M, form.D,
                    -form.Z[:, _block_flip(k - 1, n)], top, form.alpha)
    return rev, flip


def witnesses(form, b=None):
    """E = T*diag(E_K, I)*C and F = B*F_K of a _KronForm, with E_K and F_K
    as in _KronForm.certify, C = diag(I_m, W)^-1 * D^-1 * S and B the
    column permutation b (the identity by default); raise
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
    b = np.arange(k * n) if b is None else b
    f = [np.hstack([field.div(lam.coeff(i), form.alpha), g.coeff(i)])[b]
         for i in range(k)]
    e = [c[form.t]] + [field.zeros(*c.shape) for _ in range(k - 1)]
    lower = c[m:m + (k - 1) * n]
    for coeff, block in zip(e, form.top.matmul(g).coeffs):
        coeff[:m] -= block @ lower
    return MatPoly(e, field), MatPoly(f, field)


def _witness_pair(form, transposed: bool, b=None):
    e, f = witnesses(form, b)
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
        rev, b = reversal(form)
        out.append((pen.reversal(), p.reversal(),
                    *_witness_pair(rev, transposed, b)))
    return out


def g_lin_witnesses(l: AnsatzPencil):
    """Unimodular E, F with E*L*F = diag(P, I_{k-1} kron I_{m,n}),
    constructed explicitly and verified symbolically. Exact field only:
    _kron_form refuses another."""
    e, f = _witness_pair(*_kron_form(l, l.poly))
    verify_witnesses(l.pencil, l.poly, e, f)
    return e, f
