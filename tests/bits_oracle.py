"""Bit oracle: print the bits that training, saving, evaluation, saliency and
the gradient check produce, one line per cell.

Run it against any tree, from anywhere:

    PYTHONPATH=<tree>/src python tests/bits_oracle.py

Each line names a cell and gives its loss curve as float hex, the SHA-256
of its saved checkpoint, its ``evaluate`` confusion on a held-out set, its
salient nodes on that set and, for the cells small enough to check,
``grad_check_random``'s attempt, kink margin and largest error as float
hex. The last line is the SHA-256 of every line before it. Two trees
whose outputs are byte-identical computed the same bits everywhere a line
looks. Compare them with one BLAS thread (``OPENBLAS_NUM_THREADS=1``):
the adjacency gradient's bits depend on the thread count.

The cells: lgrin under every adjacency x pooling mode at M=8 and M=24
(the weighted mode's default threshold of 0 makes its mask complete, so
its max branch spans the graph at layer 0), one facial-scale learnable
cell (M=90, P=136), a head fine-tuned from the M=8 weighted cell to
two classes (its body is constant), and a three-layer model whose third
layer spans the graph at the start while its second does not. The file
name has no ``test_`` prefix, so pytest does not collect it.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from lgrin import model as mm
from lgrin import training as tr
from lgrin.data import SynthSpec, synth_generate

MODES = [(adj, pool) for adj in ("learnable", "binary", "weighted")
         for pool in ("learnable_full", "max", "mean")]


def dataset(m, p, c, per_class, seed):
    return synth_generate(SynthSpec(num_classes=c, per_class=per_class, m=m, p=p,
                                    noise=0.3, seed=seed))


def cell_line(name, model, train_ds, test_ds, cfg, tmp, fine_tune=False,
              grad_check=False):
    """Train (or fine-tune) the model and return its cell's line."""
    run = tr.fine_tune_head if fine_tune else tr.train
    model, report = run(model, train_ds, cfg)
    path = mm.save_checkpoint(model, Path(tmp) / f"{name}.npz")
    test = mm.samples_for(model, test_ds)
    fields = [name,
              "loss=" + ",".join(x.hex() for x in report.loss_curve),
              "ckpt=" + hashlib.sha256(path.read_bytes()).hexdigest(),
              "confusion=" + repr(tr.evaluate(model, test)["confusion"])]
    if model.config.pooling_mode != "mean":
        fields.append("salient=" + repr(mm.salient_nodes(model, test)))
    if grad_check:
        errors, margin, attempt = tr.grad_check_random(model.config)
        fields.append(f"gradcheck={attempt},{margin.hex()},{max(errors.values()).hex()}")
    return model, " ".join(fields)


def lines(tmp):
    cfg = tr.TrainConfig(epochs=3, batch_size=8, seed=1)
    # (M, P, C, etas, samples per class); the M=8 cells are gradient-checked
    for m, p, c, etas, per_class in [(8, 4, 3, ((6, 4), (5, 3)), 6),
                                     (24, 8, 4, ((16, 8), (16, 8)), 5)]:
        train_ds, test_ds = dataset(m, p, c, per_class, 7), dataset(m, p, c, 3, 8)
        for adj, pool in MODES:
            config = mm.ModelConfig(m=m, p=p, c=c, inception_layers=2, etas=etas,
                                    adjacency_mode=adj, pooling_mode=pool, seed=2)
            model, line = cell_line(f"m{m}-{adj}-{pool}", mm.build_lgrin(config),
                                    train_ds, test_ds, cfg, tmp, grad_check=m == 8)
            yield line
            if (m, adj, pool) == (8, "weighted", "learnable_full"):
                yield cell_line("m8-fine-tuned", model, dataset(m, p, 2, 6, 9),
                                dataset(m, p, 2, 3, 10), cfg, tmp, fine_tune=True)[1]
    config = mm.ModelConfig(m=24, p=8, c=4, inception_layers=3,
                            etas=((6, 4), (5, 3), (4, 2)), seed=0)
    yield cell_line("m24-three-layers", mm.build_lgrin(config), dataset(24, 8, 4, 5, 7),
                    dataset(24, 8, 4, 3, 8), cfg, tmp)[1]
    config = mm.ModelConfig(m=90, p=136, c=6, seed=2)
    yield cell_line("m90-learnable-learnable_full", mm.build_lgrin(config),
                    dataset(90, 136, 6, 4, 7), dataset(90, 136, 6, 2, 8),
                    tr.TrainConfig(epochs=2, batch_size=16, seed=1), tmp)[1]


def main() -> int:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for line in lines(tmp):
            print(line, flush=True)
            digest.update(line.encode() + b"\n")
    print(f"digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
