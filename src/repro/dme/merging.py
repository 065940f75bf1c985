"""Bottom-up merging arithmetic for (bounded-skew) DME.

Every subtree carries a :class:`MergeSpec`: its merging region (a rotated-
space rectangle), a conservative sink-delay interval [lo, hi] valid for
*any* embedding point inside the region, its downstream capacitance, and —
for internal nodes — the feasible *arm-length windows* to its two children.

Zero-skew DME commits each merge to the single delay-balanced split point,
so regions stay Manhattan arcs (degenerate rectangles).  Bounded-skew DME
spends the skew slack in two ways, exactly as in Cong et al.:

* *detour avoidance* — the split is clamped instead of snaked whenever the
  clamped skew still meets the bound;
* *region growth* — the split may land anywhere in a window [w_lo, w_hi]
  around the balance point.  The merged region is the rectangle of points
  p with

      dist(p, A) in [w_lo, w_hi]   and   dist(p, B) = d - dist(p, A),

  constructed along the axis realising the separation d (every point
  encodes its arm split in that coordinate; the cross-axis extent is
  clipped so the cross-axis gap never dominates).  Arms always sum to
  exactly d, so capacitance stays exact, no wire is wasted, and widening
  the delay interval over the window keeps the final skew guarantee *by
  construction* no matter which point the top-down pass picks.  Larger
  regions shorten later merge distances — the mechanism behind BST's
  wirelength advantage over ZST (paper Table 3).

The region family is restricted to rotated-space rectangles (a conservative
subset of Cong et al.'s octilinear polygons — see DESIGN.md), closed under
every operation used here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.segment import Rect
from repro.dme.models import DelayModel

#: Experimental: let bounded-skew merges produce 2-D windowed regions
#: (linear delay model only).  With this repository's rectangle-restricted
#: region family the cross-axis wire waste of grown regions empirically
#: exceeds the distance savings they enable (the true union is Cong et
#: al.'s octilinear bowtie, which a rectangle cannot hold), so the default
#: spends all skew slack on detour avoidance — which alone reproduces the
#: paper's Table 3 trend of BST wirelength falling as the bound relaxes.
GROW_REGIONS = False


@dataclass(slots=True)
class MergeSpec:
    """State of one (sub)tree during bottom-up merging."""

    region: Rect            # where this node may be embedded (rotated space)
    lo: float               # fastest possible sink delay below this node
    hi: float               # slowest possible sink delay below this node
    cap: float              # downstream capacitance, fF (exact)
    left: "MergeSpec | None" = None
    right: "MergeSpec | None" = None
    win_left: tuple[float, float] = (0.0, 0.0)   # feasible arm to left child
    win_right: tuple[float, float] = (0.0, 0.0)  # feasible arm to right child
    sink_ref: object = None  # the Sink for leaves, else None

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return (self.lo + self.hi) / 2.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def merge_specs(
    a: MergeSpec,
    b: MergeSpec,
    model: DelayModel,
    skew_bound: float,
    tol: float = 1e-9,
) -> MergeSpec:
    """Merge two subtrees under ``skew_bound``; returns the parent spec."""
    if skew_bound < 0:
        raise ValueError(f"negative skew bound {skew_bound}")
    d = a.region.distance(b.region)
    x = model.balance_split(d, a.mid, b.mid, a.cap, b.cap)
    x_clamped = min(max(x, 0.0), d)
    skew_at = _window_width(a, b, model, d, x_clamped, x_clamped)

    # A detour can only ever help when the balance point lies outside
    # [0, d]: inside it, the balanced split already achieves the minimum
    # possible width max(w_a, w_b), so snaking wire cannot improve matters
    # (it would merely shift one whole side).
    if skew_at > skew_bound + tol and not 0.0 <= x <= d:
        return _merge_with_detour(a, b, model, skew_bound, d, x)

    w_lo, w_hi, region = _grow_window(a, b, model, skew_bound, d, x_clamped)
    lo = min(a.lo + model.wire_delay(w_lo, a.cap),
             b.lo + model.wire_delay(d - w_hi, b.cap))
    hi = max(a.hi + model.wire_delay(w_hi, a.cap),
             b.hi + model.wire_delay(d - w_lo, b.cap))
    return MergeSpec(
        region=region, lo=lo, hi=hi,
        cap=a.cap + b.cap + model.unit_cap * d,
        left=a, right=b,
        win_left=(w_lo, w_hi), win_right=(d - w_hi, d - w_lo),
    )


# ----------------------------------------------------------------------
# Window search
# ----------------------------------------------------------------------
def _window_width(
    a: MergeSpec, b: MergeSpec, model: DelayModel,
    d: float, w_lo: float, w_hi: float,
) -> float:
    """Worst-case merged skew over arm window [w_lo, w_hi]."""
    lo = min(a.lo + model.wire_delay(w_lo, a.cap),
             b.lo + model.wire_delay(d - w_hi, b.cap))
    hi = max(a.hi + model.wire_delay(w_hi, a.cap),
             b.hi + model.wire_delay(d - w_lo, b.cap))
    return hi - lo


def _grow_window(
    a: MergeSpec, b: MergeSpec, model: DelayModel,
    skew_bound: float, d: float, x: float,
    iters: int = 40,
) -> tuple[float, float, Rect]:
    """Largest symmetric window around the balanced split that (1) keeps
    the worst-case merged skew within the bound and (2) admits a non-empty
    exact-sum region.  Binary search on the half-width; the degenerate
    window always qualifies.

    Growth acceptance is strict (no tolerance): the degenerate window may
    already sit at ``bound + float-creep`` after many conservative levels,
    and growing must never compound that.
    """

    def attempt(h: float) -> tuple[float, float, Rect] | None:
        w_lo, w_hi = max(0.0, x - h), min(d, x + h)
        if h > 0 and _window_width(a, b, model, d, w_lo, w_hi) > skew_bound:
            return None
        region = _window_region(a.region, b.region, d, x, w_lo, w_hi)
        if region is None:
            return None
        return w_lo, w_hi, region

    base = attempt(0.0)
    assert base is not None, "balanced intersection cannot be empty"
    if not GROW_REGIONS or model.unit_cap > 0:
        return base
    if _window_width(a, b, model, d, x, x) >= skew_bound:
        return base
    full = attempt(d)
    if full is not None:
        return full
    best = base
    lo_h, hi_h = 0.0, d
    for _ in range(iters):
        mid_h = (lo_h + hi_h) / 2.0
        result = attempt(mid_h)
        if result is not None:
            best = result
            lo_h = mid_h
        else:
            hi_h = mid_h
    return best


def _window_region(
    ra: Rect, rb: Rect, d: float, x: float, w_lo: float, w_hi: float
) -> Rect | None:
    """Merged region for arm window [w_lo, w_hi] around balance point x.

    Along the axis realising the separation, the coordinate spans the
    window; across it, the extent is that of the exactly-balanced thin
    segment (inflations by x and d - x).  Every point p then satisfies

        dist(p, ra) in [w_lo, w_hi]   and   dist(p, rb) in [d-w_hi, d-w_lo]

    — on-axis gaps encode the arms directly and cross-axis gaps are capped
    by x <= w_hi (resp. d - x <= d - w_lo), with the triangle inequality
    supplying the lower bounds.  Arms may sum to slightly more than d for
    cross-axis-extreme points (the true union is Cong et al.'s octilinear
    bowtie, which a rectangle cannot hold); the caller only grows windows
    under the linear delay model, where that waste costs wire but can
    never perturb the delay bounds.  Returns None when the cross-axis
    interval is empty — the caller then shrinks the window.
    """
    if d <= 0.0:
        return ra.intersect(rb)
    du, dv = ra.gap(rb)
    ea_bal, eb_bal = x, d - x
    if du >= dv:
        # separation realised on the u axis
        if ra.uhi <= rb.ulo:  # a left of b
            ulo, uhi = ra.uhi + w_lo, ra.uhi + w_hi
        else:                 # b left of a
            ulo, uhi = ra.ulo - w_hi, ra.ulo - w_lo
        vlo = max(ra.vlo - ea_bal, rb.vlo - eb_bal)
        vhi = min(ra.vhi + ea_bal, rb.vhi + eb_bal)
        if vlo > vhi + 1e-12:
            return None
        return Rect(ulo, uhi, min(vlo, vhi), vhi)
    # separation realised on the v axis
    if ra.vhi <= rb.vlo:
        vlo, vhi = ra.vhi + w_lo, ra.vhi + w_hi
    else:
        vlo, vhi = ra.vlo - w_hi, ra.vlo - w_lo
    ulo = max(ra.ulo - ea_bal, rb.ulo - eb_bal)
    uhi = min(ra.uhi + ea_bal, rb.uhi + eb_bal)
    if ulo > uhi + 1e-12:
        return None
    return Rect(min(ulo, uhi), uhi, vlo, vhi)


# ----------------------------------------------------------------------
# Detour path
# ----------------------------------------------------------------------
def _merge_with_detour(
    a: MergeSpec, b: MergeSpec, model: DelayModel,
    skew_bound: float, d: float, x: float,
) -> MergeSpec:
    """Merge when the balance point lies outside [0, d] and the clamped
    split violates the bound: the slow side's arm is zero, the fast side's
    arm is snaked to the minimal delay restoring the bound.  Regions stay
    thin (committed arms are exact)."""
    if x < 0.0:
        slow, fast = a, b
        arm_balance = d - x  # > d: arm the balance point asks of the fast side
    else:
        slow, fast = b, a
        arm_balance = x
    t_slow = model.wire_delay(0.0, slow.cap)
    e_fast = _detour_arm(slow, fast, model, skew_bound, d, arm_balance)
    t_fast = model.wire_delay(e_fast, fast.cap)
    region = slow.region.intersect(fast.region.inflate(e_fast))
    if region is None:
        raise RuntimeError(
            f"detour merge produced an empty region (arm {e_fast}, "
            f"distance {d})"
        )
    lo = min(slow.lo + t_slow, fast.lo + t_fast)
    hi = max(slow.hi + t_slow, fast.hi + t_fast)
    cap = a.cap + b.cap + model.unit_cap * e_fast
    if x < 0.0:
        win_left, win_right = (0.0, 0.0), (e_fast, e_fast)
    else:
        win_left, win_right = (e_fast, e_fast), (0.0, 0.0)
    return MergeSpec(
        region=region, lo=lo, hi=hi, cap=cap,
        left=a, right=b, win_left=win_left, win_right=win_right,
    )


def _detour_arm(
    slow: MergeSpec,
    fast: MergeSpec,
    model: DelayModel,
    skew_bound: float,
    d: float,
    arm_balance: float,
) -> float:
    """Arm length the *fast* side must realise to restore the bound.

    With the slow side's arm at zero, the merged skew constraints are

        slow.hi - (fast.lo + t) <= bound    (fast side must slow down)
        (fast.hi + t) - slow.lo <= bound    (but not too much)

    yielding a delay window [t_lo, t_hi] that is non-empty whenever both
    child widths respect the bound.  The minimal arm realising t >= t_lo
    is used, never shorter than the connection distance d.  When the
    window is empty (children handed in wider than the bound — possible
    when a caller merges pre-built subtrees), the best achievable width is
    at the exact balance arm.
    """
    t_lo = slow.hi - fast.lo - skew_bound
    t_hi = skew_bound + slow.lo - fast.hi
    physical_min = model.wire_delay(d, fast.cap)
    t = max(t_lo, physical_min)
    if t > t_hi + 1e-6:
        t = max(physical_min, model.wire_delay(arm_balance, fast.cap))
    return max(d, model.extension_for_delay(t, fast.cap))
