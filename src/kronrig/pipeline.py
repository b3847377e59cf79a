"""End-to-end certificate construction for Kronecker products.

The core path factors every Kronecker factor into its sparse-unit
chain, pads the chains to a common length, reads the product as a
product of layers (each layer a Kronecker product of same-kind chain
slots), splits every non-monomial layer by score thresholds, and
composes the per-layer certificates, in one pass, into one certificate
for the whole product.  On top of that sit three regrouping
strategies: packing uneven factors into balanced bins, bucketing by
doubly-exponential order ranges, and the two-regime treatment of
families that mix small generic factors with large structured ones.
`decompose_kron_product` is the one construction entry point for all
of them, and `predict_parameters` runs the layered path's offset plan
without the build.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .cert import (
    compose_kron,
    compose_product,
    conjugate_cert,
    full_cert,
    monomial_cert,
    split_g_kron,
    subset_expand_combine,
)
from .matrix import (
    ExactMatrix,
    KRON_ORDER_CAP,
    KroneckerSpec,
    MonomialMatrix,
    SizeCapError,
    all_digits,
    kron_list,
    mixed_radix_strides,
)
from .scores import (
    WeightScheme,
    _int_classes,
    _scaled_bounds,
    delta_grid,
    mean_score,
    neighborhood_counts,
    score_distribution,
    threshold_counts,
)
from .vfactor import DIAG, PERM, VCOL, VROW, pad_factorization, slot_kinds, v_factorization

# candidate offsets appended past the grid, taken from actual score gaps
EXTENSION_POINTS = 17

# constants of the display-only asymptotic rates in the hadamard and
# predict reports
C0 = Fraction(1, 64)
GAMMA_CONSTANT = Fraction(1, 8)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def _epsilon(eps):
    eps = _as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return eps


def _inputs(entries, eps, weights):
    """(entries as factor lists, the spec of their product, eps, weights).

    Each entry is a factor, or a list of factors that keeps that
    factor's own Kronecker structure.
    """
    entries = [[e] if isinstance(e, ExactMatrix) else list(e) for e in entries]
    if not all(entries):
        raise ValueError("structured entries must not be empty")
    spec = KroneckerSpec([m for e in entries for m in e])
    if spec.n > KRON_ORDER_CAP:
        raise SizeCapError(f"total order {spec.n} exceeds the "
                           f"materialization cap {KRON_ORDER_CAP}")
    return entries, spec, _epsilon(eps), weights or WeightScheme.uniform()


# ----------------------------------------------------------------------
# offset selection


def _layer_claims(dims, weights, offset):
    hi, lo = threshold_counts(dims, weights, offset)
    fill_col, fill_row = neighborhood_counts(dims, weights, offset)
    return hi + lo, max(fill_col, fill_row)


def _offset_candidates(dims, weights, eps):
    d_max = max(dims)
    m = mean_score(dims, weights)
    cands, seen = [], set()
    for dl in delta_grid(float(eps), d_max):
        off = _as_fraction(dl) * d_max * m
        if off > 0 and off not in seen:
            seen.add(off)
            cands.append(off)
    # the grid stays below the mean gap; real score gaps can sit past it,
    # and for very few factors the useful splits live only out there
    gaps = sorted({s - m for s in score_distribution(dims, weights) if s > m})
    gaps.append(m)
    gaps = sorted(set(gaps))
    if len(gaps) > EXTENSION_POINTS:
        pick = np.linspace(0, len(gaps) - 1, EXTENSION_POINTS).round().astype(int)
        gaps = [gaps[i] for i in sorted(set(int(t) for t in pick))]
    for off in gaps:
        if off > 0 and off not in seen:
            seen.add(off)
            cands.append(off)
    return cands


def _plan(dims, weights, eps, delta):
    """The split offset, its per-layer (rank, fill) and the search info.

    Exact claim arithmetic over the candidate offsets, or over the one
    offset a fixed `delta` gives: offsets that keep the composed
    sparsity within n**eps are feasible, and among them the smallest
    total rank wins.  If none is feasible the sparsest offset is
    reported with the target flagged unmet.
    """
    n = math.prod(dims)
    d_max = max(dims)
    n_v = 2 * (d_max - 1)
    if delta == "auto":
        cands = _offset_candidates(dims, weights, eps)
    else:
        cands = [_as_fraction(delta) * d_max * mean_score(dims, weights)]
    # the claims depend on the offset only through its scaled score
    # bounds, which many candidates share: count each pair of bounds once
    classes, scale = _int_classes(dims, weights)
    claims = {}
    scored = []
    for off in cands:
        bounds = _scaled_bounds(classes, scale, off)
        if bounds not in claims:
            claims[bounds] = _layer_claims(dims, weights, off)
        scored.append((off,) + claims[bounds])
    p, q = eps.numerator, eps.denominator
    n_pow = n**p
    feasible = [e for e in scored if (e[2] ** n_v) ** q <= n_pow]
    if feasible:
        off, r_l, t_l = min(feasible, key=lambda e: (e[1], e[2], e[0]))
    else:
        off, r_l, t_l = min(scored, key=lambda e: (e[2], e[1], e[0]))
    return off, r_l, t_l, {
        "grid_points": len(cands) if delta == "auto" else 0,
        "sparsity_target_met": bool(feasible)}


# ----------------------------------------------------------------------
# the layered construction


def _layered_certificate(spec, eps, weights, delta):
    f, dims, n, factors = spec.field, spec.dims, spec.n, spec.factors
    k = len(dims)
    d_max = max(dims)
    n_v = 2 * (d_max - 1)
    m = mean_score(dims, weights)
    offset, r_l, t_l, info = _plan(dims, weights, eps, delta)
    check_layers = n <= 1024

    chains = [pad_factorization(v_factorization(a), d_max) for a in factors]
    mats = [[fac.matrix() for fac in chain] for chain in chains]
    kinds = slot_kinds(d_max)
    layer_certs = []
    for j, kind in enumerate(kinds):
        slots = [chains[i][j] for i in range(k)]
        if kind in (PERM, DIAG):
            mono = slots[0].mono
            for s in slots[1:]:
                mono = mono.kron(s.mono)
            cert = monomial_cert(mono)
            if check_layers:
                layer = KroneckerSpec([mats[i][j] for i in range(k)]).materialize()
                if cert.reconstruct() != layer:
                    raise AssertionError(f"layer {j} certificate does not rebuild it")
        else:
            # a V-layer is built once, inside the split, and checked there
            assert kind in (VCOL, VROW)
            cert = split_g_kron(f, [s.vec for s in slots], offset, weights,
                                transpose=kind == VROW, check=check_layers)
            assert (cert.claimed_rank, cert.claimed_sparsity) == (r_l, t_l)
        layer_certs.append(cert)

    # per-factor suffix products; layer products are their Kronecker mix
    length = len(kinds)
    suffixes = []
    for i in range(k):
        acc = [None] * (length + 1)
        acc[length] = ExactMatrix.identity(f, dims[i])
        for j in range(length - 1, -1, -1):
            acc[j] = mats[i][j] @ acc[j + 1]
        assert acc[0] == factors[i]
        suffixes.append(acc)

    cert = compose_product(layer_certs, [KroneckerSpec([s[j] for s in suffixes])
                                         for j in range(1, length)])
    assert cert.claimed_rank == n_v * r_l
    assert cert.claimed_sparsity == t_l**n_v

    report = {
        "field": f.header,
        "dims": list(dims),
        "order": n,
        "eps": str(eps),
        "weights": {str(d): str(w) for d, w in weights.items().items()}
        if weights.items() else "uniform",
        "layers": length,
        "v_layers": n_v,
        "offset": str(offset),
        "delta": str(offset / (d_max * m)),
        "delta_float": float(offset / (d_max * m)),
        "layer_rank": r_l,
        "layer_sparsity": t_l,
        "rank_claimed": cert.claimed_rank,
        "sparsity_claimed": cert.claimed_sparsity,
        "sparsity_target": float(n) ** float(eps),
        "layer_checks": check_layers,
    }
    report.update(info)
    return cert, report


# ----------------------------------------------------------------------
# regrouping


def bin_pack(dims, capacity):
    """Greedy first-fit-decreasing with a merge repair pass.

    Returns groups of indices whose order products all stay within
    capacity, with at most one group below sqrt(capacity).
    """
    if any(d > capacity for d in dims):
        raise ValueError("a single factor already exceeds the capacity")
    order = sorted(range(len(dims)), key=lambda i: (-dims[i], i))
    bins = []
    for i in order:
        for b in bins:
            if b[0] * dims[i] <= capacity:
                b[0] *= dims[i]
                b[1].append(i)
                break
        else:
            bins.append([dims[i], [i]])
    while True:
        small = [t for t, b in enumerate(bins) if b[0] * b[0] <= capacity]
        if len(small) < 2:
            break
        small.sort(key=lambda t: (bins[t][0], t))
        a, b = small[0], small[1]
        bins[a][0] *= bins[b][0]
        bins[a][1].extend(bins[b][1])
        del bins[b]
    groups = sorted((sorted(b[1]) for b in bins), key=lambda g: g[0])
    assert all(math.prod(dims[i] for i in g) <= capacity for g in groups)
    assert sum(1 for g in groups
               if math.prod(dims[i] for i in g) ** 2 <= capacity) <= 1
    return groups


def regroup_permutation(dims, groups):
    """Index map sigma with M[a, b] = (kron of regrouped factors)[sigma[a], sigma[b]]."""
    k = len(dims)
    tau = [i for g in groups for i in g]
    if sorted(tau) != list(range(k)):
        raise ValueError("groups must partition the factor positions")
    digits = all_digits(dims)
    new_dims = tuple(dims[i] for i in tau)
    strides = np.asarray(mixed_radix_strides(new_dims), dtype=np.int64)
    return ((digits[:, tau] - 1) @ strides).astype(np.int64)


def _regrouped(cert, entries, groups):
    """Certificate for the product of `entries` in their own order, given
    `cert` for the product of the same entries taken group by group."""
    start = [0, *itertools.accumulate(len(e) for e in entries)]
    flat_groups = [[j for i in g for j in range(start[i], start[i + 1])]
                   for g in groups]
    sigma = regroup_permutation([m.rows for e in entries for m in e],
                                flat_groups)
    return conjugate_cert(
        cert, MonomialMatrix.permutation(entries[0][0].field, sigma))


# ----------------------------------------------------------------------
# entry points


def decompose_kron_product(entries, eps, mode="equal", weights=None,
                           delta="auto"):
    """Certificate plus report for the Kronecker product of the entries.

    Each entry is a factor, or a list of factors that keeps that
    factor's own Kronecker structure.  Modes: "equal" splits the layered
    chains of all factors directly, "binpack" first packs the factors
    into balanced groups and conjugates back, "hadamard" routes small
    and large entries through separate strategies and is the only mode
    that reads the entries' structure.  A fixed `delta` replaces the
    offset search of "equal" and "binpack"; "hadamard" refuses one.
    """
    if mode == "hadamard":
        if delta != "auto":
            raise ValueError("delta applies to the equal and binpack "
                             "modes only")
        return hadamard_family_pipeline(entries, eps, weights)
    _, spec, eps, weights = _inputs(entries, eps, weights)
    if mode == "equal":
        cert, report = _layered_certificate(spec, eps, weights, delta)
        report["mode"] = "equal"
        return cert, report
    if mode == "binpack":
        capacity = max(spec.dims) ** 2
        groups = bin_pack(spec.dims, capacity)
        grouped = [kron_list([spec.factors[i] for i in g]) for g in groups]
        cert_g, report = _layered_certificate(KroneckerSpec(grouped), eps,
                                              weights, delta)
        report.update({
            "mode": "binpack",
            "dims": list(spec.dims),
            "capacity": capacity,
            "groups": [list(g) for g in groups],
            "grouped_dims": [g.rows for g in grouped],
        })
        return _regrouped(cert_g, [[m] for m in spec.factors], groups), report
    raise ValueError(f"unknown mode {mode!r}")


def bucket_pipeline(entries, eps, weights=None):
    """Group entries into doubly-exponential order buckets and combine.

    Buckets with enough combined mass get subset-expanded certificates
    built from per-entry decompositions; the residue of light buckets
    stays fully sparse.  Entries may carry their own Kronecker
    structure, which is what makes the per-entry certificates strong.
    """
    entries, spec, eps, weights = _inputs(entries, eps, weights)
    n = spec.n
    entry_dims = [math.prod(m.rows for m in e) for e in entries]
    b = min(entry_dims)

    def bucket_of(d):
        t, hi = 1, b * b
        while d > hi:
            t += 1
            hi = hi * hi
        return t

    tags = [bucket_of(d) for d in entry_dims]
    tvals = sorted(set(tags))
    groups = [[i for i in range(len(entries)) if tags[i] == t] for t in tvals]

    d_top = max(entry_dims)
    level_count = max(1.0, math.log2(max(2.0, math.log2(d_top))))
    need = float(eps) / level_count * math.log2(n)

    cert, bucket_info, gammas = None, [], []
    for t, g in zip(tvals, groups):
        mats = [kron_list(entries[i]) for i in g]
        mat_t = kron_list(mats)
        mass = math.log2(math.prod(entry_dims[i] for i in g))
        selected = mass >= need - 1e-9
        if selected:
            certs = []
            for i in g:
                c_e, _ = decompose_kron_product(entries[i], eps,
                                                weights=weights)
                certs.append(c_e)
                gammas.append(
                    max(0.0, 1.0 - math.log2(max(c_e.claimed_rank, 1))
                        / math.log2(entry_dims[i])))
            cert_t = subset_expand_combine(certs, mats, eps)
        else:
            cert_t = full_cert(mat_t)
        cert = cert_t if cert is None else compose_kron(cert, cert_t, mat_t)
        bucket_info.append({
            "level": t,
            "entries": list(g),
            "orders": [entry_dims[i] for i in g],
            "selected": bool(selected),
            "rank_claimed": cert_t.claimed_rank,
            "sparsity_claimed": cert_t.claimed_sparsity,
        })

    cert = _regrouped(cert, entries, groups)

    # display-only asymptotic exponent; the guarantees live in the claims
    min_gamma = min(gammas) if gammas else 0.0
    l2 = max(1.0, math.log2(max(2.0, math.log2(max(d_top, 2)))))
    l3 = max(0.0, math.log2(l2)) if l2 > 1.0 else 0.0
    psi = float(eps) ** 2 * min_gamma / (4.0 * l2) - l3 / math.log2(n)
    report = {
        "mode": "bucket",
        "field": spec.field.header,
        "order": n,
        "eps": str(eps),
        "base": b,
        "entry_orders": entry_dims,
        "buckets": bucket_info,
        "rank_claimed": cert.claimed_rank,
        "sparsity_claimed": cert.claimed_sparsity,
        "gammas": gammas,
        "min_gamma": min_gamma,
        "psi": psi,
        "asymptotic_only": True,
    }
    return cert, report


def hadamard_family_pipeline(entries, eps, weights=None):
    """Split a mixed family at a size threshold and certify both halves.

    Entries of order at most max(smallest order, 3/eps) are packed and
    layered together; the rest go through the bucket path.  A composite
    certificate is always produced, whichever side of the threshold the
    family lands on ("mixed" if some entries are large, else "bounded");
    the regime only affects the reported exponents.
    """
    entries, spec, eps, weights = _inputs(entries, eps, weights)
    n = spec.n
    entry_dims = [math.prod(m.rows for m in e) for e in entries]
    b_star = max(Fraction(min(entry_dims)), Fraction(3) / eps)

    f_idx = [i for i, d in enumerate(entry_dims) if d <= b_star]
    h_idx = [i for i, d in enumerate(entry_dims) if d > b_star]
    # the smallest entry is never above the threshold, so f_idx is not empty
    reports = {}
    cert, reports["small_part"] = decompose_kron_product(
        [entries[i] for i in f_idx], eps, mode="binpack", weights=weights)
    if h_idx:
        cert_h, reports["large_part"] = bucket_pipeline(
            [entries[i] for i in h_idx], eps, weights=weights)
        cert = compose_kron(cert, cert_h, KroneckerSpec(
            [m for i in h_idx for m in entries[i]]).materialize())
    cert = _regrouped(cert, entries, [idx for idx in (f_idx, h_idx) if idx])

    eps_f = float(eps)
    b_sf = max(float(b_star), 2.0)
    gamma_b = (float(C0) * eps_f**2
               / (b_sf**1.5 * math.log2(b_sf) ** 3
                  * math.log2(max(1.0 / eps_f, 2.0)) ** 2))
    n_f = math.prod(entry_dims[i] for i in f_idx)
    n_h = math.prod(entry_dims[i] for i in h_idx)
    report = {
        "mode": "hadamard",
        "field": spec.field.header,
        "order": n,
        "eps": str(eps),
        "size_threshold": str(b_star),
        "small_entries": f_idx,
        "large_entries": h_idx,
        "regime": "mixed" if h_idx else "bounded",
        "small_order": n_f,
        "large_order": n_h,
        "small_part_heavy": math.log2(n_f) >= eps_f * math.log2(n),
        "large_part_heavy": math.log2(n_h) >= eps_f * math.log2(n),
        "gamma_rate": gamma_b,
        "order_floor_log2": (24.0 / (eps_f * gamma_b)) * math.log2(b_sf),
        "rank_claimed": cert.claimed_rank,
        "sparsity_claimed": cert.claimed_sparsity,
        "asymptotic_only": True,
    }
    report.update(reports)
    return cert, report


# ----------------------------------------------------------------------
# parameter prediction


def _common_power_base(dims):
    for g in range(2, min(dims) + 1):
        exps = []
        for d in dims:
            e, x = 0, d
            while x % g == 0:
                x //= g
                e += 1
            if x != 1:
                break
            exps.append(e)
        else:
            return g, exps
    return None, None


def predict_parameters(dims, eps, weights=None):
    """Window of usable chain multiplicities, the resulting rank-saving
    rate, and the claims of the equal-mode plan, with no matrix built.

    Exact rational arithmetic whenever every order is a power of one
    base; floating point otherwise.  An empty window is reported, not
    raised.
    """
    if not dims or any(d < 2 for d in dims):
        raise ValueError("orders must all be at least 2")
    eps = _epsilon(eps)
    weights = weights or WeightScheme.uniform()
    dims = sorted(int(d) for d in dims)
    d_lo, d_hi = dims[0], dims[-1]
    m = mean_score(dims, weights)
    base, exps = _common_power_base(dims)
    if base is not None:
        ratio_sum = sum(Fraction(e, exps[-1]) for e in exps)
        k_lower = m * d_hi / (weights.weight(d_lo) * ratio_sum)
        l_upper = m * d_hi / (weights.weight(d_hi) * ratio_sum)
        exact = True
    else:
        ratio_sum = sum(math.log(d) / math.log(d_hi) for d in dims)
        k_lower = float(m) * d_hi / (float(weights.weight(d_lo)) * ratio_sum)
        l_upper = float(m) * d_hi / (float(weights.weight(d_hi)) * ratio_sum)
        exact = False
    window_ok = k_lower <= l_upper
    kf, lf = float(k_lower), float(l_upper)
    gamma = (float(GAMMA_CONSTANT) * lf * float(eps) ** 2
             / (d_hi * math.log2(d_hi) * kf**2
                * math.log2(max(kf / float(eps), 2.0)) ** 2))
    n_v = 2 * (d_hi - 1)
    off, r_l, t_l, info = _plan(dims, weights, eps, "auto")
    return {
        "dims": dims,
        "eps": str(eps),
        "exact": exact,
        "power_base": base,
        "mean_score": str(m),
        "multiplicity_lower": k_lower,
        "multiplicity_upper": l_upper,
        "balanced_multiplicity": k_lower if k_lower == l_upper else None,
        "window_nonempty": bool(window_ok),
        "gamma": gamma,
        "gamma_constant": str(GAMMA_CONSTANT),
        "feasible": bool(window_ok and gamma > 0),
        "offset": str(off),
        "delta": str(off / (d_hi * m)),
        "predicted_rank": n_v * r_l,
        "predicted_sparsity": t_l**n_v,
        "sparsity_target_met": info["sparsity_target_met"],
    }
