"""The closed-form eigenmode catalogs of the Dirac and wave operators at
mu = 0 on the reflection class of D6 (groups.require_catalog_class).

Each catalog declares its claimed eigenvectors as a table in block
coordinates (spectra.BlockForm), and one scorer replays it against the
blocks of the operator a report holds, one block product per candidate,
and its certified spectrum.  Zero candidates are reported as such, the
others verified exactly, and any gap between the verified span and the
multiplicity is reported with explicit completion modes: shortfalls are
reported, not asserted away.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .cyclotomic import ONE, ZERO, Cyclotomic, rat
from .groups import require_catalog_class
from .linalg import Echelon, Mat
from .spectra import irreducible_blocks

if TYPE_CHECKING:
    from .groups import ConjClass
    from .reporting import Geometry
    from .representations import Representation
    from .spectra import BlockForm, Spectrum


def _unit(d: int, l: int) -> list[Cyclotomic]:
    """The l-th unit vector of length d, l from 1."""
    return [ONE if i == l - 1 else ZERO for i in range(d)]


def _mode(name: str, k: int, *components: Sequence) -> tuple:
    """The mode of copy (name, row k), k from 1, from the coordinates of its
    spinor components in turn; the unit vector of l is the matrix
    coefficient name[k, l]."""
    return (name, k - 1), [rat(v) for comp in components for v in comp]


def _column(m: Mat, l: int) -> list[Cyclotomic]:
    """Column l of m, l from 1: the coordinates of R(h) rho_kl for m = rho(h)."""
    return [row[l - 1] for row in m.rows]


def _twisted(k: int, l: int, component: int, dim_w: int) -> tuple:
    """The twisted coefficient sign2[k, l] in the given spinor component:
    sign2 is rotation -> id, reflection -> diag(-1, 1), the sum of the sign
    and trivial characters, so sign2[k, l] is sign for k = l = 1, trivial
    for k = l = 2 and identically zero off the diagonal."""
    name = ("sign", "trivial")[k - 1]
    value = ONE if k == l else ZERO
    return _mode(name, 1, *([value if j == component else ZERO] for j in range(dim_w)))


def _sign_image(mode: tuple) -> tuple:
    """The sign character chi times a mode of a planar copy.  On the
    dihedral planar irreducibles chi(g) rho(g) = D rho(g) D for
    D = diag(1, -1), rotations being diagonal and reflections
    antidiagonal, so chi rho_kl = (-1)^(k + l) rho_kl."""
    (name, row), vec = mode
    return (name, row), [-v if (row + i) % 2 else v for i, v in enumerate(vec)]


def _spans(vectors: list[list[Cyclotomic]], first: int) -> tuple[int, int]:
    """The dimensions of the spans of vectors[:first] and of all vectors,
    from one echelon the vectors join in order: each that does not reduce
    to zero adds one to the span of those before it."""
    echelon = Echelon(vectors)
    kept = [echelon.insert(echelon.clear(vec)) is not None for vec in vectors]
    return sum(kept[:first]), sum(kept)


def _mode_spans(modes: list[tuple], first: int) -> tuple[int, int]:
    """_spans of modes: the copies are independent summands, so each
    copy's vectors are ranked alone and the dimensions add up."""
    span = combined = 0
    for copy in dict.fromkeys(c for c, _ in modes):
        head = [vec for c, vec in modes[:first] if c == copy]
        tail = [vec for c, vec in modes[first:] if c == copy]
        s, t = _spans(head + tail, len(head))
        span, combined = span + s, combined + t
    return span, combined


def _assess(irreps: Sequence[Representation], blocks: Sequence[Mat], spect: Spectrum,
            families: Sequence[tuple], completions: Mapping) -> dict:
    """Score a catalog declared in block coordinates against the operator
    with the given irreducible blocks and its certified spectrum spect: a
    status per candidate, and spans and gaps per claimed value.

    families lists (name, claimed value, [(label, mode)]); completions
    maps each claimed value to summarise, in report order, to its
    [(label, mode)].  A mode's eigenvalue is read off one product with its
    copy's block.  Multiplicities are read off the spectrum.
    """
    block_of = {rho.name: block for rho, block in zip(irreps, blocks)}

    def eigenvalue(mode):
        """The exact eigenvalue of a nonzero mode, or None."""
        (name, _), vec = mode
        image = block_of[name] @ vec
        lead = next(i for i, x in enumerate(vec) if x)
        lam = image[lead] / vec[lead]
        return lam if all(x == lam * y for x, y in zip(image, vec)) else None

    verified: dict[Cyclotomic, list] = {}
    scored = []
    for name, claimed, candidates in families:
        claimed = rat(claimed)
        rows = []
        for label, mode in candidates:
            if not any(mode[1]):
                status, lam = "zero_vector", None
            else:
                lam = eigenvalue(mode)
                if lam is None:
                    status = "not_an_eigenmode"
                else:
                    status = "eigenmode" if lam == claimed else "eigenvalue_mismatch"
                    verified.setdefault(lam, []).append(mode)
            rows.append({"label": label, "status": status, "eigenvalue": lam})
        scored.append({"name": name, "claimed_eigenvalue": claimed, "candidates": rows})
    summaries = []
    for value, named in completions.items():
        v = rat(value)
        modes = verified.get(v, [])
        mult = spect.multiplicity(v)
        comp_entries = []
        comp_modes = []
        for label, mode in named:
            lam = eigenvalue(mode)
            ok = lam is not None and lam == v
            comp_entries.append({"label": label, "verified": ok})
            if ok:
                comp_modes.append(mode)
        span, combined = _mode_spans(modes + comp_modes, len(modes))
        claimed_rows = [c for fam in scored if fam["claimed_eigenvalue"] == v
                        for c in fam["candidates"]]
        summaries.append({
            "value": v,
            "claimed_candidates": len(claimed_rows),
            "zero_vectors": sum(c["status"] == "zero_vector" for c in claimed_rows),
            "verified": len(modes),
            "claimed_span": span,
            "multiplicity": mult,
            "gap": mult - span,
            "completions": comp_entries,
            "completed_span": combined,
            "complete": combined == mult,
        })
    return {"families": scored, "eigenvalues": summaries}


def eigenmode_catalog(C: ConjClass, coeffs: Mapping[int, Mat], form: BlockForm) -> dict:
    """Replay the closed-form Dirac eigenvector list against the mu = 0
    Dirac operator of the spinor representation and the distinguished
    connection, given by its coefficients and its certified block form.

    Families: images of the off-diagonal translation blocks (claimed zero
    modes), the two columns of the twisted 2-dimensional representation
    (claimed at +3 and -3), a rotation-translated ansatz at +3, a
    reflection-translated ansatz at -3, and the parity images of the
    rotation ansatz.  Some claimed candidates are identically zero and some
    families only span part of the certified eigenspace; the catalog
    reports those shortfalls and exhibits explicit completion modes from
    the irreducible matrix elements.  Every candidate is declared in block
    coordinates: rho is the spinor representation, which is the planar1
    irreducible, and a right translation R(h) acts on the coordinates of a
    copy of rho by rho(h).
    """
    require_catalog_class(C)
    reps = {r.name: r for r in form.irreps}
    rho = reps["planar1"]
    zero = [ZERO] * rho.dim
    # the translation blocks of the free part, as group-algebra elements
    elements = {name: {a: Mat([[w(rho(a))]]) for a in C.members} for name, w in (
        ("lower", lambda m: m[1, 0]), ("upper", lambda m: m[0, 1]), ("diag", lambda m: ONE))}
    fourier = {name: irreducible_blocks(x, form.irreps) for name, x in elements.items()}
    lower, upper = (fourier[name][form.irreps.index(rho)] for name in ("lower", "upper"))
    t, x = C.members[0], C.members[1]
    omega = rho(t)[1, 0]
    # phi_k = rho[k, 2], and phi_k beside omega R_t phi_k
    rotated = [_mode("planar1", k, _unit(2, 2), [omega * v for v in _column(rho(t), 2)])
               for k in (1, 2)]

    def twisted_column(l):
        return [entry for k in (1, 2) for entry in (
            (f"(sign2[{k},{l}], 0)", _twisted(k, l, 0, 2)),
            (f"(0, sign2[{k},{l}])", _twisted(k, l, 1, 2)))]

    families = [
        ("translation-block images", 0, [
            entry for k in (1, 2) for l in (1, 2) for entry in (
                (f"(lower rho[{k},{l}], 0)", _mode("planar1", k, _column(lower, l), zero)),
                (f"(0, upper rho[{k},{l}])", _mode("planar1", k, zero, _column(upper, l))))]),
        ("twisted first column", 3, twisted_column(1)),
        ("twisted second column", -3, twisted_column(2)),
        ("rotation ansatz", 3, [
            (f"rotation ansatz k={k}", mode) for k, mode in zip((1, 2), rotated)]),
        ("reflection ansatz", -3, [
            (f"reflection ansatz k={k}", _mode("planar1", k, _unit(2, 2), _column(rho(x), 2)))
            for k in (1, 2)]),
        # multiplication by chi on each spinor component
        ("parity images of the rotation ansatz", -3, [
            (f"parity image k={k}", _sign_image(mode)) for k, mode in zip((1, 2), rotated)]),
    ]

    completions = {
        0: [(f"(planar2[{k},2], 0)", _mode("planar2", k, _unit(2, 2), zero)) for k in (1, 2)]
        + [(f"(0, planar2[{k},1])", _mode("planar2", k, zero, _unit(2, 1))) for k in (1, 2)],
        3: [("(rot-parity, 0)", _mode("rot-parity", 1, [ONE], [ZERO])),
            ("(0, rot-parity)", _mode("rot-parity", 1, [ZERO], [ONE]))]
        + [(f"(planar2[{k},1], -planar2[{k},2])",
            _mode("planar2", k, _unit(2, 1), [-v for v in _unit(2, 2)])) for k in (1, 2)],
        -3: [("(rot-parity*sign, 0)", _mode("rot-parity*sign", 1, [ONE], [ZERO])),
             ("(0, rot-parity*sign)", _mode("rot-parity*sign", 1, [ZERO], [ONE]))]
        + [(f"(planar2[{k},1], planar2[{k},2])", _mode("planar2", k, _unit(2, 1), _unit(2, 2)))
           for k in (1, 2)],
    }

    out = _assess(form.irreps, form.blocks, form.spectrum, families, completions)
    out["mu"] = ZERO

    # P = diag(chi) on each spinor component takes M_h (x) R(h) to
    # chi(g) chi(gh) M_h (x) R(h), and chi(g) chi(gh) = chi(h) as chi is a
    # character with chi^2 = 1: P op + op P = 0 exactly when chi(h) = -1
    # wherever M_h != 0, and P^2 = 1 exactly when chi^2 = 1
    chi = [m[0, 0] for m in reps["sign"].matrices]
    out["sign_multiplication_anticommutes"] = (
        all(chi[h] == -ONE for h, m in coeffs.items() if not m.is_zero())
        and all(c * c == ONE for c in chi))
    # XY = 0 in the group algebra exactly when every irreducible block of
    # XY, the product of the blocks of X and Y, vanishes
    out["component_identities"] = {
        f"{x}*{y}": all((p @ q).is_zero() for p, q in zip(fourier[x], fourier[y]))
        for x, y in (("lower", "lower"), ("upper", "upper"), ("diag", "lower"),
                     ("lower", "diag"), ("diag", "upper"), ("upper", "diag"))}
    return out


def wave_eigenmode_catalog(geo: Geometry, coeffs: Mapping[int, Mat], spect: Spectrum) -> dict:
    """Replay the closed-form wave eigenfunction list against the mu = 0
    wave operator on the class of geo, given by its coefficients, and its
    certified spectrum spect, in the blocks of the operator for the
    irreducibles of the group.  It reads them from geo after its order-12
    check, so a refused class builds no representation.

    Claimed families: the second twisted column at eigenvalue 0, the first
    twisted column at -12, and the spinor matrix elements together with
    their complex conjugates at -6.  One candidate in each twisted family
    is identically zero, and the conjugated matrix elements coincide with
    the originals up to index reversal, so each claimed family spans only
    part of the certified eigenspace; the completions name the missing
    characters and the second planar family.
    """
    require_catalog_class(geo.cls)
    irreps = geo.irreps
    reps = {r.name: r for r in irreps}
    rho = reps["planar1"]

    def element(name, k, l):
        return _mode(name, k, _unit(reps[name].dim, l))

    # conj rho = J rho J for the swap J, as conjugates_coincide_reversed
    # states, so conj rho[k, l] is declared as rho[3 - k, 3 - l]
    families = [
        ("twisted second column", 0, [(f"sign2[{k},2]", _twisted(k, 2, 0, 1)) for k in (1, 2)]),
        ("twisted first column", -12, [(f"sign2[{k},1]", _twisted(k, 1, 0, 1)) for k in (1, 2)]),
        ("spinor matrix elements", -6,
         [(f"rho[{k},{l}]", element("planar1", k, l)) for k in (1, 2) for l in (1, 2)]
         + [(f"conj rho[{k},{l}]", element("planar1", 3 - k, 3 - l))
            for k in (1, 2) for l in (1, 2)]),
    ]
    completions = {
        0: [("rot-parity*sign", element("rot-parity*sign", 1, 1))],
        -12: [("rot-parity", element("rot-parity", 1, 1))],
        -6: [(f"planar2[{k},{l}]", element("planar2", k, l)) for k in (1, 2) for l in (1, 2)],
    }
    out = _assess(irreps, irreducible_blocks(coeffs, irreps), spect, families, completions)
    out["mu"] = ZERO
    # the conjugated elements are the originals with both indices reversed
    out["conjugates_coincide_reversed"] = all(
        m[k, l].conj() == m[1 - k, 1 - l] for m in rho.matrices for k in (0, 1) for l in (0, 1))
    return out
