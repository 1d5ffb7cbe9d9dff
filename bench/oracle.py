"""Independent exact geometry that the output checks compare against.

Nothing here imports finegraph.  Points are pairs of ``Fraction``; a torus
curve is given by its lift, one period from v0 towards v0 + h with h in Z^2,
and the closing edge is added here.  Every routine is a brute-force
enumeration over integer translates and segment pairs, written for clarity
rather than speed; none of it runs inside a timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key

TRANSVERSE = "transverse"
TOUCH = "touch"


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _orient(a, b, c):
    d = _det(_sub(b, a), _sub(c, a))
    return (d > 0) - (d < 0)


def rep(p):
    """The representative of a torus point in [0,1)^2."""
    return (p[0] - math.floor(p[0]), p[1] - math.floor(p[1]))


def closed_path(lift):
    """One period of a torus curve, closed: last point = first + h."""
    pts = [(Fraction(x), Fraction(y)) for x, y in lift]
    h = homology(pts)
    end = (pts[0][0] + h[0], pts[0][1] + h[1])
    if pts[-1] != end:
        pts.append(end)
    return pts


def homology(lift):
    d = _sub(lift[-1], lift[0])
    return (int(d[0]), int(d[1]))


def _segs(path):
    return [(path[i], path[i + 1]) for i in range(len(path) - 1) if path[i] != path[i + 1]]


def _box(segs):
    xs = [c for s in segs for c in (s[0][0], s[1][0])]
    ys = [c for s in segs for c in (s[0][1], s[1][1])]
    return min(xs), max(xs), min(ys), max(ys)


def _shifts(box_a, box_b, wrap_y=True):
    """Integer vectors w such that box_b + w can touch box_a."""
    ax0, ax1, ay0, ay1 = box_a
    bx0, bx1, by0, by1 = box_b
    xs = range(math.ceil(ax0 - bx1), math.floor(ax1 - bx0) + 1)
    ys = range(math.ceil(ay0 - by1), math.floor(ay1 - by0) + 1) if wrap_y else (0,)
    return [(i, j) for i in xs for j in ys]


def _shift(seg, w):
    return ((seg[0][0] + w[0], seg[0][1] + w[1]), (seg[1][0] + w[0], seg[1][1] + w[1]))


def seg_meet(s1, s2):
    """None, ("point", p) or ("overlap", None) for two closed segments."""
    (p, q), (r, s) = s1, s2
    if max(p[0], q[0]) < min(r[0], s[0]) or max(r[0], s[0]) < min(p[0], q[0]):
        return None
    if max(p[1], q[1]) < min(r[1], s[1]) or max(r[1], s[1]) < min(p[1], q[1]):
        return None
    d1, d2 = _sub(q, p), _sub(s, r)
    den = _det(d1, d2)
    w = _sub(r, p)
    if den == 0:
        if _det(d1, w) != 0:
            return None
        axis = 0 if d1[0] != 0 else 1
        lo = max(min(p[axis], q[axis]), min(r[axis], s[axis]))
        hi = min(max(p[axis], q[axis]), max(r[axis], s[axis]))
        if lo > hi:
            return None
        if lo < hi:
            return ("overlap", None)
        for c in (p, q):
            if c[axis] == lo:
                return ("point", c)
    t = _det(w, d2) / den
    u = _det(w, d1) / den
    if 0 <= t <= 1 and 0 <= u <= 1:
        return ("point", (p[0] + t * d1[0], p[1] + t * d1[1]))
    return None


def _dir_cmp(d1, d2):
    h1 = 0 if d1[1] > 0 or (d1[1] == 0 and d1[0] > 0) else 1
    h2 = 0 if d2[1] > 0 or (d2[1] == 0 and d2[0] > 0) else 1
    if h1 != h2:
        return h1 - h2
    return -_orient((0, 0), d1, d2)


def _on_seg(x, seg):
    p, q = seg
    return (
        _orient(p, q, x) == 0
        and min(p[0], q[0]) <= x[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= x[1] <= max(p[1], q[1])
    )


def branch_dirs(path, x):
    """Directions in which a closed curve leaves the torus point x."""
    segs = _segs(path)
    out = []
    for i, (p, q) in enumerate(segs):
        for w in _shifts(_box([(x, x)]), _box([(p, q)])):
            y = (x[0] - w[0], x[1] - w[1])
            if not _on_seg(y, (p, q)) or y == q:
                continue
            out.append(_sub(q, p))
            if y == p:
                prev = segs[i - 1]
                out.append(_sub(prev[0], prev[1]))
            else:
                out.append(_sub(p, q))
    return out


def contacts(u_lift, v_lift):
    """All contacts of two torus curves: (overlap, {torus point: kind}).

    kind is TRANSVERSE when the two curves cross at the point (four branch
    directions alternating around it), TOUCH otherwise."""
    pu, pv = closed_path(u_lift), closed_path(v_lift)
    su, sv = _segs(pu), _segs(pv)
    points = set()
    for w in _shifts(_box(su), _box(sv)):
        moved = [_shift(s, w) for s in sv]
        for a in su:
            for b in moved:
                hit = seg_meet(a, b)
                if hit is None:
                    continue
                if hit[0] == "overlap":
                    return True, {}
                points.add(rep(hit[1]))
    kinds = {}
    for x in points:
        du, dv = branch_dirs(pu, x), branch_dirs(pv, x)
        fan = sorted([(d, "u") for d in du] + [(d, "v") for d in dv],
                     key=cmp_to_key(lambda a, b: _dir_cmp(a[0], b[0])))
        labels = [lab for _, lab in fan]
        alternating = len(labels) == 4 and all(
            labels[i] != labels[(i + 1) % 4] for i in range(4)
        ) and all(_dir_cmp(fan[i][0], fan[(i + 1) % 4][0]) != 0 for i in range(4))
        kinds[x] = TRANSVERSE if alternating else TOUCH
    return False, kinds


def edge_tag(u_lift, v_lift):
    """("disjoint", None), ("transverse", point) or ("none", None)."""
    overlap, kinds = contacts(u_lift, v_lift)
    if overlap:
        return ("none", None)
    if not kinds:
        return ("disjoint", None)
    if len(kinds) == 1:
        (x, kind), = kinds.items()
        if kind == TRANSVERSE:
            return ("transverse", x)
    return ("none", None)


def crossings(u_lift, v_lift):
    """Number of transverse crossing points of two torus curves, or -1 when
    they overlap along a segment."""
    overlap, kinds = contacts(u_lift, v_lift)
    if overlap:
        return -1
    return sum(k == TRANSVERSE for k in kinds.values())


def clique_type(lifts):
    """Type of a 3-clique read off brute-force pair tags; None when the
    triple is not a clique."""
    tags = [edge_tag(lifts[i], lifts[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    if any(t[0] == "none" for t in tags):
        return None, []
    pts = [t[1] for t in tags if t[0] == "transverse"]
    if len(pts) < 3:
        return ["all_disjoint", "one_pair", "two_pair"][len(pts)], pts
    if len(set(pts)) == 1:
        return "bouquet", pts
    if len(set(pts)) == 3:
        return "necklace", pts
    return None, pts


def simple(lift):
    """Is the torus curve embedded?"""
    path = closed_path(lift)
    segs = _segs(path)
    h = homology(path)
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
            hit = seg_meet(segs[i], segs[j])
            if hit is None:
                continue
            if hit[0] == "overlap":
                return False
            if j == i + 1 and hit[1] == segs[i][1]:
                continue
            return False
    for w in _shifts(_box(segs), _box(segs)):
        if w == (0, 0):
            continue
        allowed = set()
        if w == h:
            allowed.add(path[-1])
        if w == (-h[0], -h[1]):
            allowed.add(path[0])
        for a in segs:
            for b in (_shift(s, w) for s in segs):
                hit = seg_meet(a, b)
                if hit is None:
                    continue
                if hit[0] == "overlap" or hit[1] not in allowed:
                    return False
    return True


# ------------------------------------------------------------ face labels


def _cross_count(a, b, lift):
    """Signed crossings of the segment a->b with every lift of a torus curve.

    Points on the line through a and b count as lying on its left, which
    perturbs the segment consistently; a and b must lie off the curve."""
    segs = _segs(closed_path(lift))
    total = 0
    for w in _shifts(_box([(a, b)]), _box(segs)):
        for u, v in (_shift(s, w) for s in segs):
            su = _orient(a, b, u) >= 0
            sv = _orient(a, b, v) >= 0
            if su == sv:
                continue
            ta, tb = _orient(u, v, a), _orient(u, v, b)
            if ta == 0 or tb == 0:
                raise ValueError("segment endpoint lies on a curve")
            if ta != tb:
                total += 1 if su else -1
    return total


def _hnf(rows):
    """Echelon basis of the integer row lattice spanned by rows."""
    rows = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(3):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv, others = live[0], live[1:]
            live = [piv]
            for r in others:
                k = r[col] // piv[col]
                r = [r[c] - k * piv[c] for c in range(3)]
                (live if r[col] != 0 else rest).append(r)
        if live:
            piv = live[0] if live[0][col] > 0 else [-x for x in live[0]]
            basis.append((col, piv))
        rows = [r for r in rest if any(r)]
    return basis


def _reduce(n, basis):
    n = list(n)
    for col, row in basis:
        k = n[col] // row[col]
        for c in range(3):
            n[c] -= k * row[c]
    return tuple(n)


def face_labels(lifts, samples):
    """A label per sample point that is equal for points of one
    complementary face of the curves.

    The label is the vector of signed crossings of the segment from the
    first sample to the point with each curve, modulo the lattice of
    changes a deck translation makes; distinct labels mean distinct faces."""
    hs = [homology(closed_path(c)) for c in lifts]
    gens = [[-h[1] for h in hs], [h[0] for h in hs]]
    basis = _hnf(gens)
    base = samples[0]
    return [
        _reduce([_cross_count(base, x, c) for c in lifts], basis) for x in samples
    ]


def piece_samples(d_lift, lifts):
    """One point inside each piece of d cut at its contacts with the curves."""
    path = closed_path(d_lift)
    segs = _segs(path)
    cuts = set()
    for c in lifts:
        cs = _segs(closed_path(c))
        for w in _shifts(_box(segs), _box(cs)):
            moved = [_shift(s, w) for s in cs]
            for i, (p, q) in enumerate(segs):
                for s in moved:
                    hit = seg_meet((p, q), s)
                    if hit is None:
                        continue
                    if hit[0] == "overlap":
                        raise ValueError("d overlaps a curve")
                    x = hit[1]
                    axis = 0 if q[0] != p[0] else 1
                    cuts.add(i + (x[axis] - p[axis]) / (q[axis] - p[axis]))
    n = len(segs)
    ts = sorted(t % n for t in cuts)
    if not ts:
        ts = [Fraction(0)]
    out = []
    for k, t in enumerate(ts):
        nxt = ts[k + 1] if k + 1 < len(ts) else ts[0] + n
        mid = (t + nxt) / 2 % n
        i = int(mid)
        f = mid - i
        p, q = segs[i]
        out.append((p[0] + f * (q[0] - p[0]), p[1] + f * (q[1] - p[1])))
    return out


# ----------------------------------------------------------- strip arcs


def arcs_meet(u, v):
    """Do two plane polylines touch anywhere?"""
    su, sv = _segs(list(u)), _segs(list(v))
    return any(seg_meet(a, b) is not None for a in su for b in sv)


def translate_set(a, b):
    """{k : a + (k, 0) meets b} for two arcs in the strip, all k tried."""
    box_a = _box(_segs(list(a)))
    box_b = _box(_segs(list(b)))
    out = set()
    for k in range(math.floor(box_b[0] - box_a[1]) - 1, math.ceil(box_b[1] - box_a[0]) + 2):
        if arcs_meet([(p[0] + k, p[1]) for p in a], b):
            out.add(k)
    return out


def strip_crossings(u, v):
    """Proper interior crossings of two strip arcs over all deck translates
    of v; an arc through the other's vertex or endpoint is reported as an
    error, since the arcs are meant to cross transversally."""
    su, sv = _segs(list(u)), _segs(list(v))
    ends = {u[0], u[-1]}
    count = 0
    box_u = _box(su)
    box_v = _box(sv)
    for k in range(math.floor(box_u[0] - box_v[1]) - 1, math.ceil(box_u[1] - box_v[0]) + 2):
        for a in su:
            for b in (_shift(s, (k, 0)) for s in sv):
                hit = seg_meet(a, b)
                if hit is None:
                    continue
                if hit[0] == "overlap":
                    raise ValueError("arcs overlap")
                x = hit[1]
                if x in ends and (x[0] - k, x[1]) in (v[0], v[-1]):
                    continue
                if x in (a[0], a[1], b[0], b[1]):
                    raise ValueError("contact at an arc vertex")
                count += 1
    return count


# ---------------------------------------------------------------- germs


def _axis_turns(path):
    """Signed crossings of the positive x-axis along a polyline."""
    total = 0
    for p, q in zip(path, path[1:]):
        if p[1] == 0 or q[1] == 0 or (p[1] > 0) == (q[1] > 0):
            continue
        x = p[0] + (q[0] - p[0]) * p[1] / (p[1] - q[1])
        if x > 0:
            total += 1 if q[1] > 0 else -1
    return total


def germ_tail(generator, lam, periods):
    """The tail g, Mg, ..., M^(periods-1) g of a germ as one polyline."""
    out = [generator[0]]
    scale = Fraction(1)
    for _ in range(periods):
        out.extend((scale * x, scale * y) for x, y in generator[1:])
        scale *= lam
    return out


def germ_classes(g1, g2, lam, periods=12):
    """Winding discrepancies at the crossings of two germ tails, over an
    explicit number of periods (the rotation part is the identity)."""
    t1 = germ_tail(g1, lam, periods)
    t2 = germ_tail(g2, lam, periods)
    ks = set()
    for i in range(len(t1) - 1):
        for j in range(len(t2) - 1):
            hit = seg_meet((t1[i], t1[i + 1]), (t2[j], t2[j + 1]))
            if hit is None or hit[0] != "point":
                continue
            x = hit[1]
            k1 = _axis_turns(t1[: i + 1] + [x])
            k2 = _axis_turns(t2[: j + 1] + [x])
            ks.add(k1 - k2)
    return ks
