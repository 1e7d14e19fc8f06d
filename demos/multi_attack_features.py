"""One benign-trained model, many attack families.

The detector never sees an attack during training, so it does not care
what kind of attack arrives later: anything that reconstructs badly is
flagged. This demo trains on benign feature rows only, then scores mixed
traffic carrying three attack families it has never seen, reporting
accuracy per family.

Feature rows here are synthetic 6-dimensional vectors standing in for any
pre-extracted flow statistics; real deployments read them from a CSV via
``load_feature_dataset`` or ``aadetect replay --features``.

Run:  python3 demos/multi_attack_features.py
"""

import numpy as np

from aadetect import Detector, FeatureTable, Mode, config_from_dict, run

rng = np.random.default_rng(42)
DIM = 6


def rows_from(center, spread, n, transform=None):
    block = np.abs(rng.normal(center, spread, size=(n, DIM)))
    return block if transform is None else transform(block)


benign_train = rows_from(0.5, 0.08, 400)
families = [(rows_from(0.5, 0.08, 300), None),
            (rows_from(3.0, 0.15, 60), "flood"),  # loud on every feature
            (rows_from(0.5, 0.08, 60, transform=lambda b: 0.02 * b),
             "slowloris"),  # starved, near-zero activity
            (rows_from(0.5, 0.08, 60, transform=lambda b: b * np.array([1, 1, 1, 1, 12.0, 1])),
             "exfil")]
mixed = np.vstack([block for block, _ in families])
kinds = [kind for block, kind in families for _ in block]
order = list(range(len(mixed)))
rng.shuffle(order)
table = FeatureTable(np.vstack([benign_train, mixed[order]]),
                     [False] * len(benign_train) + [kinds[i] is not None for i in order],
                     [None] * len(benign_train) + [kinds[i] for i in order])

config = config_from_dict({"train": {"init_len": len(benign_train)}})  # init on every benign row
detector = Detector(DIM, config, mode=Mode.FEATURES)
report = run(detector, table)

print(f"trained on {len(table) - len(report.decisions)} benign rows; "
      f"judged {len(report.decisions)} rows")
print(report.summary())
print("accuracy per attack family (model never saw any of them):")
for family, acc in sorted(report.per_attack_type.items()):
    print(f"  {family:10s} {acc:6.2f}%")
