"""Decision procedures for existence of almost split sequences/triangles.

Every verdict carries the hypothesis rule it instantiates and is one of
"yes", "no", or "unknown-at-cap".  Infinite dimension or infinite homological
dimension is never asserted from a cap: only finiteness certificates (a
vanishing degree piece, a vanishing syzygy) upgrade a verdict, so raising a
cap can only resolve unknowns, never flip an answer.
"""

from .errors import InputError
from .gmodule import standard_module
from .presentations import graded_dimension

YES = "yes"
NO = "no"
UNKNOWN = "unknown-at-cap"


def _verdict(value, rule, evidence=None):
    v = {"verdict": value, "rule": rule}
    if evidence is not None:
        v["evidence"] = evidence
    return v


def existence_report(algebra, cap=10, assert_noetherian=None):
    """Structured existence verdicts for the module and derived levels.

    Local noetherianness has no terminating test; `assert_noetherian`
    ("left", "right" or "both") records a user assertion, from which the
    abelianness of the finitely generated/cogenerated categories is reported
    as asserted rather than computed.
    """
    if cap < 1:
        raise InputError("caps must be positive")
    report = {"caps": {"degree": cap, "dimension": cap}}
    bounded = algebra.boundedness(cap)
    left = bounded["left"]["status"] == "finite"
    right = bounded["right"]["status"] == "finite"
    report["boundedness"] = bounded
    if assert_noetherian in ("left", "both") or left:
        report.setdefault("noetherian", {})["left"] = {
            "status": "certified" if left else "user-asserted",
            "consequence": "the finitely generated graded category is abelian "
                           "and Ext-finite"}
    if assert_noetherian in ("right", "both") or right:
        report.setdefault("noetherian", {})["right"] = {
            "status": "certified" if right else "user-asserted",
            "consequence": "the finitely cogenerated graded category is "
                           "abelian and Ext-finite"}

    def side_verdict(is_finite):
        return YES if is_finite else UNKNOWN

    report["finitely_presented_category"] = {
        "almost_split_on_left": _verdict(
            side_verdict(left),
            "locally left bounded algebras have almost split sequences on the "
            "left in the finitely presented and finitely copresented categories"),
        "almost_split_on_right": _verdict(
            side_verdict(right),
            "locally right bounded algebras have almost split sequences on the "
            "right in the finitely presented and finitely copresented categories"),
    }
    report["finitely_copresented_category"] = dict(
        report["finitely_presented_category"])
    report["finite_dimensional_category"] = {
        "almost_split_on_left": _verdict(
            side_verdict(left),
            "locally bounded algebras have almost split sequences in the "
            "finite dimensional category (sidewise from sidewise boundedness)"),
        "almost_split_on_right": _verdict(
            side_verdict(right),
            "locally bounded algebras have almost split sequences in the "
            "finite dimensional category (sidewise from sidewise boundedness)"),
    }

    # derived level: needs local boundedness plus finite homological dimension
    # of every graded simple
    pd_table = {}
    id_table = {}
    if left and right:
        for v in algebra.quiver.vertices:
            S = standard_module(algebra, "S", v, 0)
            pd_table[v] = graded_dimension(S, "proj", cap)
            id_table[v] = graded_dimension(S, "inj", cap)
        all_pd = all(r["kind"] == "exact" for r in pd_table.values())
        all_id = all(r["kind"] == "exact" for r in id_table.values())
        right_verdict = YES if all_pd else UNKNOWN
        left_verdict = YES if all_id else UNKNOWN
        derived_rule = ("over a locally bounded algebra the bounded derived "
                        "category of finite dimensional graded modules has "
                        "almost split triangles on the right (left) iff every "
                        "graded simple has finite projective (injective) dimension")
        report["derived_finite_dimensional"] = {
            "almost_split_triangles_on_right": _verdict(right_verdict, derived_rule,
                                                        {"pd": pd_table}),
            "almost_split_triangles_on_left": _verdict(left_verdict, derived_rule,
                                                       {"id": id_table}),
        }
    else:
        report["derived_finite_dimensional"] = {
            "almost_split_triangles_on_right": _verdict(
                UNKNOWN, "local boundedness not certified at this cap"),
            "almost_split_triangles_on_left": _verdict(
                UNKNOWN, "local boundedness not certified at this cap"),
        }

    # hereditary specialization: exact, cap-free answers from cycle analysis
    if not algebra.relations:
        analysis = algebra.quiver.analyze()
        no_cycle = analysis["acyclic"]
        hered_rule_left = ("for a path algebra the finitely presented graded "
                          "representations have almost split sequences on the "
                          "left iff the quiver has no infinite path with a "
                          "starting point (on finite quivers: no cycle)")
        hered_rule_right = ("for a path algebra the finitely copresented graded "
                           "representations have almost split sequences on the "
                           "right iff the quiver has no infinite path with an "
                           "end point (on finite quivers: no cycle)")
        hered_derived = ("for a path algebra the bounded derived categories of "
                         "finitely presented and finitely copresented graded "
                         "representations have almost split triangles iff the "
                         "quiver has no infinite path (on finite quivers: no cycle)")
        report["hereditary"] = {
            "quiver_analysis": analysis,
            "fp_almost_split_on_left": _verdict(YES if no_cycle else NO,
                                                hered_rule_left),
            "fci_almost_split_on_right": _verdict(YES if no_cycle else NO,
                                                  hered_rule_right),
            "derived_almost_split_triangles": _verdict(YES if no_cycle else NO,
                                                       hered_derived),
        }
    return report


def human_table(report):
    """Flatten a report into aligned text lines."""
    lines = []

    def walk(prefix, node):
        if isinstance(node, dict) and "verdict" in node:
            lines.append((prefix, node["verdict"]))
            return
        if isinstance(node, dict):
            for k, v in node.items():
                if k in ("evidence", "rule", "caps", "boundedness",
                         "quiver_analysis"):
                    continue
                walk(f"{prefix}.{k}" if prefix else k, v)

    walk("", report)
    width = max((len(p) for p, _ in lines), default=0)
    out = [f"{p.ljust(width)}  {v}" for p, v in lines]
    b = report.get("boundedness")
    if b:
        out.append(f"{'boundedness.left'.ljust(width)}  {b['left']['status']}")
        out.append(f"{'boundedness.right'.ljust(width)}  {b['right']['status']}")
    return "\n".join(out)
