"""End-to-end training on a generated bundle, without touching the CLI.

Builds a small separable three-modality dataset, trains a two-member
ensemble, shows the plateau schedule acting on the logs, and prints the
final metric report.

Run with:  python3 demos/05_train_on_synthetic.py  (about half a minute)
"""

from tbje.metrics import evaluation_report
from tbje.model import EncoderConfig, init_model
from tbje.synthetic import (DEFAULT_LENGTHS, DEFAULT_WIDTHS,
                            make_synthetic_bundle)
from tbje.training import (TrainConfig, ensemble_predict, evaluate_accuracy,
                           fit, gold_labels, predictions_from_probabilities)

# ---------------------------------------------------------------------------
# data: 7 sentiment classes, one prototype per class, noisy copies per row
# ---------------------------------------------------------------------------

bundle = make_synthetic_bundle(seed=8, train_examples=48, valid_examples=16,
                               test_examples=16)
train, valid, test = (bundle.splits[s] for s in ("train", "valid", "test"))
print("splits:", {s: bundle.splits[s].size for s in bundle.splits})
print("modalities:", bundle.modalities)

# ---------------------------------------------------------------------------
# model and schedule
# ---------------------------------------------------------------------------

enc = EncoderConfig(
    modalities=("L", "A", "V"), primary="L", blocks=2, width=16, heads=2,
    mlp_width=32, lengths=dict(DEFAULT_LENGTHS),
    input_widths=dict(DEFAULT_WIDTHS), task="sentiment-7",
    positional={"L": True})
cfg = TrainConfig(lr=2e-3, batch_size=8, decay_factor=0.2, max_decays=2,
                  patience=8, max_epochs=60, ensemble_size=2, seed=0)

models = []
for member in range(cfg.ensemble_size):
    model = init_model(enc, seed=cfg.seed + member)
    state = fit(model, train, valid, cfg, member=member)
    models.append(model)
    print(f"\nmember {member}: stopped after epoch {state.epoch}, "
          f"best valid accuracy {state.best_accuracy:.3f}, "
          f"{state.decays_used} lr decays")
    for rec in state.log[:3] + [None] + state.log[-2:]:
        if rec is None:
            print("   ...")
        else:
            print(f"   epoch {rec['epoch']:2d}  lr {rec['lr']:.1e}  "
                  f"loss {rec['train_loss']:.4f}  "
                  f"valid {rec['val_accuracy']:.3f}")

# ---------------------------------------------------------------------------
# ensemble evaluation: average probabilities, then decide
# ---------------------------------------------------------------------------

print("\nper-member test accuracy:",
      [round(evaluate_accuracy(m, test), 3) for m in models])

probs = ensemble_predict(models, test.batches)
pred = predictions_from_probabilities(probs, enc.task)
gold = gold_labels(test, enc.task)
report = evaluation_report(enc.task, pred, gold)
print("ensemble test report:")
for key, value in report.items():
    print(f"   {key:15s} {value:.4f}" if isinstance(value, float)
          else f"   {key:15s} {value}")
