"""Show how each tracking metric reacts to specific failure modes.

Starts from a perfect prediction and damages it three ways: dropped
frames, an identity switch, and spurious boxes.  DetA cares only about
where boxes are; AssA/IDF1 care about who they belong to; MOTA charges
for everything.
"""

from frond.geometry import BBox, LeafBox
from frond.metrics import daily_accuracy, evaluate, leaf_accuracy_matrix, match_frames


def make_gt(n_frames=10, n_leaves=2):
    return [
        LeafBox(f, leaf, BBox(120.0 * leaf, 0.0, 20.0, 20.0))
        for f in range(1, n_frames + 1)
        for leaf in range(1, n_leaves + 1)
    ]


def show(label, gt, pred):
    r = evaluate(gt, pred)
    print(f"{label:28s} HOTA {r.hota:.3f}  DetA {r.deta:.3f}  AssA {r.assa:.3f}  "
          f"MOTA {r.mota:+.3f}  IDF1 {r.idf1:.3f}  (IDSW {r.idsw})")
    return r


def main():
    gt = make_gt()
    # A perfect tracker's rows are the ground truth itself: each track id
    # is its leaf's id.
    show("perfect", gt, gt)

    # Drop both leaves from frames 9 and 10: detection suffers, but
    # every box that remains still carries the right identity.
    dropped = [p for p in gt if p.frame <= 8]
    show("missing last two frames", gt, dropped)

    # Swap identities halfway: every box is still in the right place
    # (DetA stays 1.0) but association is halved.
    swapped = [
        LeafBox(p.frame, p.leaf_id if p.frame <= 5 else 3 - p.leaf_id, p.box)
        for p in gt
    ]
    show("ids swapped at frame 6", gt, swapped)

    # Pure clutter: false boxes nowhere near a leaf.  Only DetA and
    # MOTA notice; identity metrics ignore boxes that match nothing...
    clutter = gt + [
        LeafBox(f, 50 + f, BBox(900.0, 900.0, 20.0, 20.0)) for f in range(1, 6)
    ]
    show("five spurious boxes", gt, clutter)

    # ...except IDF1, whose denominator counts every predicted box.
    print()

    # The per-leaf accuracy matrix grades each annotated (leaf, frame)
    # cell: identity must be right AND the box tight (IoU >= 0.75).
    loose = [
        LeafBox(p.frame, p.leaf_id,
                BBox(p.box.u, p.box.v + (3.0 if p.frame == 4 else 0.0), 20.0, 20.0))
        for p in swapped
    ]
    matrix = leaf_accuracy_matrix(match_frames(gt, loose))
    print("leaf accuracy matrix (1 correct, 0 failure):")
    print("        frames 1..10")
    for i, leaf in enumerate(matrix.leaf_ids):
        cells = "".join("1" if c == 1 else "0" for c in matrix.cells[i])
        print(f"leaf {leaf}: {cells}")
    fractions = daily_accuracy(matrix)
    print("daily accuracy:", {f: round(v, 2) for f, v in sorted(fractions.items())})


if __name__ == "__main__":
    main()
