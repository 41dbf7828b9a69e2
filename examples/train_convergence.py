"""Train a real GCN with FastGL and verify convergence + accuracy.

FastGL's optimizations are exactness-preserving, so the model must learn
just as well as under the DGL baseline (the paper's Fig. 16). This example
(1) trains a numpy GCN with both frameworks and compares their loss
curves, then (2) uses the library's high-level :class:`FastGLTrainer`
to train with validation tracking and a final accuracy readout. The
trainer wraps the same epoch loop as section 1's FastGL run, so its
first epoch is that run's first epoch: with ``epochs=1`` both sections
print the same loss.

Usage::

    python examples/train_convergence.py [epochs]
"""

import sys

import numpy as np

from repro import FastGLTrainer, RunConfig, get_dataset
from repro.frameworks import DGLFramework, FastGLFramework


def main() -> None:
    epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    dataset = get_dataset("reddit")
    dataset.materialize_features()
    config = RunConfig(batch_size=512, fanouts=(5, 5, 5), num_gpus=2,
                       train_model=True, num_epochs=epochs)

    print(f"1) framework comparison: GCN on {dataset.name}, "
          f"{epochs} epoch(s)")
    for framework in (DGLFramework(), FastGLFramework()):
        report = framework.run_epoch(dataset, config, model_name="gcn")
        n = max(1, len(report.losses) // epochs)
        print(f"   {framework.name:7s}: loss {report.losses[0]:.3f} -> "
              f"{np.mean(report.losses[-n:]):.3f} "
              f"(epoch modeled time {report.epoch_time:.3g}s)")

    print("\n2) FastGLTrainer (Fig. 5 pipeline) with validation tracking")
    trainer = FastGLTrainer(dataset, "gcn", config)
    history = trainer.train(num_epochs=epochs, validate=True)
    print(f"   epoch mean losses: "
          f"{[round(v, 3) for v in history.epoch_mean_losses(epochs)]}")
    print(f"   validation accuracy per epoch: "
          f"{[round(a, 3) for a in history.val_accuracies]}")
    print(f"   rows loaded {history.rows_loaded}, "
          f"reused {history.rows_reused} "
          f"(Match kept {history.rows_reused / max(1, history.rows_loaded + history.rows_reused):.0%} on device)")

    test_accuracy = trainer.evaluate(dataset.test_ids[:1024])
    chance = 1.0 / dataset.num_classes
    print(f"\ntest accuracy: {test_accuracy:.1%} (chance {chance:.1%})")


if __name__ == "__main__":
    main()
