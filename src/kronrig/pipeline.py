"""End-to-end certificate construction for Kronecker products.

The core path factors every Kronecker factor into its sparse-unit
chain, pads the chains to a common length, reads the product as a
product of layers (each layer a Kronecker product of same-kind chain
slots), splits every non-monomial layer by score thresholds, and folds
the per-layer certificates back into one certificate for the whole
product.  On top of that sit three regrouping strategies: packing
uneven factors into balanced bins, bucketing by doubly-exponential
order ranges, and the two-regime treatment of families that mix small
generic factors with large structured ones.
"""

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
    transpose_cert,
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
    delta_grid,
    mean_score,
    neighborhood_counts,
    score_distribution,
    threshold_counts,
)
from .vfactor import DIAG, PERM, VCOL, VROW, pad_factorization, slot_kinds, v_factorization

# candidate offsets appended past the grid, taken from actual score gaps
EXTENSION_POINTS = 17


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def _validate_factors(factors):
    if not factors:
        raise ValueError("need at least one factor")
    f = factors[0].field
    for pos, m in enumerate(factors):
        if not isinstance(m, ExactMatrix):
            raise ValueError(f"factor {pos} is not an ExactMatrix")
        if m.field != f:
            raise ValueError(f"factor {pos} is over {m.field.header}, "
                             f"factor 0 over {f.header}")
        if not m.is_square or m.rows < 2:
            raise ValueError(f"factor {pos} must be square of order at "
                             f"least 2, got shape {m.shape}")
    dims = tuple(m.rows for m in factors)
    n = math.prod(dims)
    if n > KRON_ORDER_CAP:
        raise SizeCapError(
            f"total order {n} exceeds the materialization cap {KRON_ORDER_CAP}")
    return f, dims, n


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


def _search_offset(dims, weights, eps, n, n_v_layers):
    """Pick the split offset with exact claim arithmetic.

    Feasible offsets keep the composed sparsity within n**eps; among
    them the smallest total rank wins.  If none is feasible the
    sparsest offset is reported with the target flagged unmet.
    """
    cands = _offset_candidates(dims, weights, eps)
    scored = [(off,) + _layer_claims(dims, weights, off) for off in cands]
    p, q = eps.numerator, eps.denominator
    n_pow = n**p
    feasible = [e for e in scored if (e[2] ** n_v_layers) ** q <= n_pow]
    if feasible:
        off, r_l, t_l = min(feasible, key=lambda e: (e[1], e[2], e[0]))
        met = True
    else:
        off, r_l, t_l = min(scored, key=lambda e: (e[2], e[1], e[0]))
        met = False
    return off, r_l, t_l, {"grid_points": len(cands), "sparsity_target_met": met}


# ----------------------------------------------------------------------
# the layered construction


def _layered_certificate(factors, eps, weights, delta, check_layers):
    f, dims, n = _validate_factors(factors)
    k = len(dims)
    d_max = max(dims)
    n_v = 2 * (d_max - 1)
    m = mean_score(dims, weights)
    if delta == "auto":
        offset, r_l, t_l, info = _search_offset(dims, weights, eps, n, n_v)
    else:
        offset = _as_fraction(delta) * d_max * m
        r_l, t_l = _layer_claims(dims, weights, offset)
        p, q = eps.numerator, eps.denominator
        info = {"grid_points": 0,
                "sparsity_target_met": bool((t_l**n_v) ** q <= n**p)}
    if check_layers is None:
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
        elif kind == VCOL:
            cert = split_g_kron(f, [s.vec for s in slots], offset, weights)
        else:
            assert kind == VROW
            cert = transpose_cert(
                split_g_kron(f, [s.vec for s in slots], offset, weights))
        if kind in (VCOL, VROW):
            assert (cert.claimed_rank, cert.claimed_sparsity) == (r_l, t_l)
        if check_layers:
            layer = KroneckerSpec([mats[i][j] for i in range(k)]).materialize()
            if cert.reconstruct() != layer:
                raise AssertionError(f"layer {j} certificate does not rebuild it")
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

    cert = layer_certs[length - 1]
    for j in range(length - 2, -1, -1):
        target = KroneckerSpec([suffixes[i][j + 1] for i in range(k)])
        cert = compose_product(layer_certs[j], cert, target)
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
        "layer_checks": bool(check_layers),
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


# ----------------------------------------------------------------------
# entry points


def decompose_kron_product(factors, eps, mode="equal", weights=None,
                           delta="auto", check_layers=None):
    """Certificate plus report for the Kronecker product of the factors.

    Modes: "equal" splits the layered chains directly, "binpack" first
    packs factors into balanced groups and conjugates back, "hadamard"
    routes small and large factors through separate strategies.
    """
    f, dims, n = _validate_factors(factors)
    eps = _as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    weights = weights or WeightScheme.uniform()
    if mode == "equal":
        cert, report = _layered_certificate(factors, eps, weights, delta,
                                            check_layers)
        report["mode"] = "equal"
        return cert, report
    if mode == "binpack":
        capacity = max(dims) ** 2
        groups = bin_pack(dims, capacity)
        grouped = [kron_list([factors[i] for i in g]) for g in groups]
        cert_g, report = _layered_certificate(grouped, eps, weights, delta,
                                              check_layers)
        sigma = regroup_permutation(dims, groups)
        cert = conjugate_cert(cert_g, MonomialMatrix.permutation(f, sigma))
        report.update({
            "mode": "binpack",
            "dims": list(dims),
            "capacity": capacity,
            "groups": [list(g) for g in groups],
            "grouped_dims": [g.rows for g in grouped],
        })
        return cert, report
    if mode == "hadamard":
        return hadamard_family_pipeline(factors, eps, weights=weights)
    raise ValueError(f"unknown mode {mode!r}")


def _normalize_entries(entries):
    """Each entry is a factor or a list exposing that factor's own product structure."""
    norm = []
    for e in entries:
        if isinstance(e, ExactMatrix):
            norm.append([e])
        else:
            sub = list(e)
            if not sub:
                raise ValueError("structured entries must not be empty")
            norm.append(sub)
    return norm


def bucket_pipeline(entries, eps, weights=None, base=None):
    """Group entries into doubly-exponential order buckets and combine.

    Buckets with enough combined mass get subset-expanded certificates
    built from per-entry decompositions; the residue of light buckets
    stays fully sparse.  Entries may carry their own Kronecker
    structure, which is what makes the per-entry certificates strong.
    """
    entries = _normalize_entries(entries)
    flat = [m for sub in entries for m in sub]
    f, flat_dims, n = _validate_factors(flat)
    eps = _as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    weights = weights or WeightScheme.uniform()
    entry_dims = [math.prod(m.rows for m in sub) for sub in entries]
    b = base if base is not None else min(entry_dims)
    if b < 2 or b > min(entry_dims):
        raise ValueError("base must be at least 2 and at most the smallest order")

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

    bucket_certs, bucket_mats, bucket_info = [], [], []
    gammas = []
    for t, g in zip(tvals, groups):
        mats = [kron_list(entries[i]) for i in g]
        mass = math.log2(math.prod(entry_dims[i] for i in g))
        selected = mass >= need - 1e-9
        if selected:
            certs = []
            for i in g:
                c_e, _ = decompose_kron_product(entries[i], eps,
                                                weights=weights)
                certs.append(c_e)
                d_e = entry_dims[i]
                gammas.append(
                    max(0.0, 1.0 - math.log2(max(c_e.claimed_rank, 1))
                        / math.log2(d_e)))
            cert_t = subset_expand_combine(certs, mats, eps)
        else:
            cert_t = full_cert(kron_list(mats))
        bucket_certs.append(cert_t)
        bucket_mats.append(kron_list(mats))
        bucket_info.append({
            "level": t,
            "entries": list(g),
            "orders": [entry_dims[i] for i in g],
            "selected": bool(selected),
            "rank_claimed": cert_t.claimed_rank,
            "sparsity_claimed": cert_t.claimed_sparsity,
        })

    cert = bucket_certs[0]
    for c, mat in zip(bucket_certs[1:], bucket_mats[1:]):
        cert = compose_kron(cert, c, mat)
    flat_groups = []
    start = [0]
    for sub in entries:
        start.append(start[-1] + len(sub))
    for g in groups:
        flat_groups.append([j for i in g for j in range(start[i], start[i + 1])])
    sigma = regroup_permutation(flat_dims, flat_groups)
    cert = conjugate_cert(cert, MonomialMatrix.permutation(f, sigma))

    # display-only asymptotic exponent; the guarantees live in the claims
    min_gamma = min(gammas) if gammas else 0.0
    l2 = max(1.0, math.log2(max(2.0, math.log2(max(d_top, 2)))))
    l3 = max(0.0, math.log2(l2)) if l2 > 1.0 else 0.0
    psi = float(eps) ** 2 * min_gamma / (4.0 * l2) - l3 / math.log2(n)
    report = {
        "mode": "bucket",
        "field": f.header,
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


def hadamard_family_pipeline(entries, eps, weights=None, base=None,
                             c0=Fraction(1, 64)):
    """Split a mixed family at a size threshold and certify both halves.

    Entries of order at most max(base, 3/eps) are packed and layered
    together; the rest go through the bucket path.  A composite
    certificate is always produced, whichever side of the threshold the
    family lands on; the regime only affects the reported exponents.
    """
    entries = _normalize_entries(entries)
    flat = [m for sub in entries for m in sub]
    f, flat_dims, n = _validate_factors(flat)
    eps = _as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    weights = weights or WeightScheme.uniform()
    entry_dims = [math.prod(m.rows for m in sub) for sub in entries]
    b = base if base is not None else min(entry_dims)
    b_star = max(Fraction(b), Fraction(3) / eps)

    f_idx = [i for i, d in enumerate(entry_dims) if d <= b_star]
    h_idx = [i for i, d in enumerate(entry_dims) if d > b_star]
    parts = []
    reports = {}
    if f_idx:
        flat_f = [m for i in f_idx for m in entries[i]]
        cert_f, rep_f = decompose_kron_product(flat_f, eps, mode="binpack",
                                               weights=weights)
        parts.append((cert_f, flat_f))
        reports["small_part"] = rep_f
    if h_idx:
        cert_h, rep_h = bucket_pipeline([entries[i] for i in h_idx], eps,
                                        weights=weights)
        parts.append((cert_h, [m for i in h_idx for m in entries[i]]))
        reports["large_part"] = rep_h

    cert, _ = parts[0]
    for other, other_flat in parts[1:]:
        cert = compose_kron(cert, other, KroneckerSpec(other_flat).materialize())

    start = [0]
    for sub in entries:
        start.append(start[-1] + len(sub))
    flat_groups = [[j for i in idx for j in range(start[i], start[i + 1])]
                   for idx in (f_idx, h_idx) if idx]
    sigma = regroup_permutation(flat_dims, flat_groups)
    cert = conjugate_cert(cert, MonomialMatrix.permutation(f, sigma))

    if not h_idx:
        regime = "bounded"
    elif not f_idx:
        regime = "unbounded"
    else:
        regime = "mixed"
    eps_f = float(eps)
    b_sf = max(float(b_star), 2.0)
    gamma_b = (float(c0) * eps_f**2
               / (b_sf**1.5 * math.log2(b_sf) ** 3
                  * math.log2(max(1.0 / eps_f, 2.0)) ** 2))
    n_f = math.prod(entry_dims[i] for i in f_idx) if f_idx else 1
    n_h = math.prod(entry_dims[i] for i in h_idx) if h_idx else 1
    report = {
        "mode": "hadamard",
        "field": f.header,
        "order": n,
        "eps": str(eps),
        "size_threshold": str(b_star),
        "small_entries": f_idx,
        "large_entries": h_idx,
        "regime": regime,
        "small_order": n_f,
        "large_order": n_h,
        "small_part_heavy": bool(f_idx) and math.log2(n_f) >= eps_f * math.log2(n),
        "large_part_heavy": bool(h_idx) and math.log2(n_h) >= eps_f * math.log2(n),
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


def predict_parameters(dims, eps, weights=None, gamma_constant=Fraction(1, 8)):
    """Window of usable chain multiplicities and the resulting rank-saving rate.

    Exact rational arithmetic whenever every order is a power of one
    base; floating point otherwise.  An empty window is reported, not
    raised.
    """
    if not dims or any(d < 2 for d in dims):
        raise ValueError("orders must all be at least 2")
    eps = _as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
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
    gamma = (float(gamma_constant) * lf * float(eps) ** 2
             / (d_hi * math.log2(d_hi) * kf**2
                * math.log2(max(kf / float(eps), 2.0)) ** 2))
    n = math.prod(dims)
    n_v = 2 * (d_hi - 1)
    off, r_l, t_l, info = _search_offset(dims, weights, eps, n, n_v)
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
        "gamma_constant": str(gamma_constant),
        "feasible": bool(window_ok and gamma > 0),
        "offset": str(off),
        "delta": str(off / (d_hi * m)),
        "predicted_rank": n_v * r_l,
        "predicted_sparsity": t_l**n_v,
        "sparsity_target_met": info["sparsity_target_met"],
    }
