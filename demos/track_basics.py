"""Walk the memory-bank tracker through a tiny hand-made sequence.

Three leaves appear, one hides for a few frames and comes back, and a
stranger shows up mid-sequence.  Along the way we print what the bank
does: matches, EMA updates, aging, pruning, and new track creation.
"""

import numpy as np

from frond.geometry import BBox
from frond.tracker import Detection, MemoryBank, TrackerParams, step


def leaf_detection(u, embedding, conf=0.95):
    return Detection(BBox(u, 50.0, 24.0, 24.0), conf, np.asarray(embedding, dtype=float))


def describe(bank, born):
    # Row i of each bank field belongs to one live track.
    rows = zip(bank.track_ids, bank.ages)
    parts = [f"id {track_id} (age {age}, born frame {born[track_id]})" for track_id, age in rows]
    return ", ".join(parts) if parts else "(empty)"


def main():
    rng = np.random.default_rng(7)
    # One stable appearance vector per leaf, plus one for the stranger.
    signatures = {name: rng.normal(size=32) for name in ("a", "b", "c", "stranger")}

    params = TrackerParams()  # tau_s=0.4, tau_a=5, alpha=0.5, conf_min=0.5
    bank = MemoryBank()
    born = {}  # track id -> the frame that founded it
    print(f"params: tau_s={params.tau_s} tau_a={params.tau_a} alpha={params.alpha}")

    # Frames 1-10: leaf "b" disappears during frames 4-8 (5 misses) and
    # returns on frame 9, just inside the age limit.
    script = {}
    for frame in range(1, 11):
        present = ["a", "c"] if 4 <= frame <= 8 else ["a", "b", "c"]
        if frame == 6:
            present.append("stranger")
        script[frame] = present

    for frame in sorted(script):
        dets = [
            leaf_detection(100.0 * k, signatures[name] + rng.normal(0, 0.05, 32))
            for k, name in enumerate(script[frame])
        ]
        bank, result = step(bank, dets, params, frame)
        born.update(dict.fromkeys(result.new_track_ids, frame))
        labels = " ".join(
            f"{script[frame][j]}->id{tid}" for tid, j, _ in result.assignments
        )
        notes = []
        if result.new_track_ids:
            notes.append(f"new {result.new_track_ids}")
        if result.pruned_track_ids:
            notes.append(f"pruned {result.pruned_track_ids}")
        print(f"frame {frame:2d}: {labels:40s} {' '.join(notes)}")

    print("final bank:", describe(bank, born))
    print()
    print("leaf b kept its id across the 5-frame gap because tau_a=5")
    print("allows exactly five consecutive misses before pruning.")

    # Same story but with a 6-frame gap: the track dies and the leaf
    # comes back under a fresh id.
    bank2 = MemoryBank()
    for frame in range(1, 12):
        present = ["a", "c"] if 4 <= frame <= 9 else ["a", "b", "c"]
        dets = [
            leaf_detection(100.0 * k, signatures[name] + rng.normal(0, 0.05, 32))
            for k, name in enumerate(present)
        ]
        bank2, result = step(bank2, dets, params, frame)
        if result.pruned_track_ids:
            print(f"frame {frame}: pruned {result.pruned_track_ids} (gap too long)")
        if frame >= 10 and result.new_track_ids:
            print(f"frame {frame}: leaf b reborn as {result.new_track_ids}")


if __name__ == "__main__":
    main()
