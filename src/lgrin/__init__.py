"""Learnable-graph inception networks for fixed-length sequence classification.

Sequences become graphs with one node per frame; the package jointly
learns a shared adjacency, multi-branch node embeddings, a graph-level
pooling, and a classifier, end to end on its own reverse-mode tape.
"""

from .adjacency import (effective_adjacency, fixed_adjacency, neighbor_mask,
                        renormalized_adjacency, structure_matrix)
from .autodiff import GradTape, Tensor, backward
from .data import (GraphDataset, SequenceSample, SynthSpec, cv_split,
                   load_dataset, pad_or_truncate, save_dataset, synth_generate)
from .model import (LGrinModel, ModelConfig, build_baseline_gcn, build_lgrin,
                    closed_form_parameter_count, forward_shared, load_checkpoint,
                    parameter_count, salient_nodes, save_checkpoint)
from .objective import LossWeights, graph_learning_loss
from .training import (AdamState, TrainConfig, TrainReport, adam_step, evaluate,
                       fine_tune_head, grad_check_random, lr_at_epoch, train)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "GradTape", "GraphDataset", "LGrinModel", "LossWeights",
    "ModelConfig", "SequenceSample", "SynthSpec", "Tensor", "TrainConfig",
    "TrainReport", "adam_step", "backward", "build_baseline_gcn",
    "build_lgrin", "closed_form_parameter_count", "cv_split",
    "effective_adjacency", "evaluate", "fine_tune_head", "fixed_adjacency",
    "forward_shared", "grad_check_random", "graph_learning_loss",
    "load_checkpoint", "load_dataset", "lr_at_epoch", "neighbor_mask",
    "pad_or_truncate", "parameter_count", "renormalized_adjacency",
    "salient_nodes", "save_checkpoint", "save_dataset", "structure_matrix",
    "synth_generate", "train",
]
