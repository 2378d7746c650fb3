"""Uniform linked-list contraction on a checked EREW PRAM simulator."""

from .errors import (ErewViolationError, ForestFormatError, ImproperColoringError,
                     ListContractError, OrientationError, UncoveredCaseError)
from .pram import Engine, Memory, PramConfig, RoundMetrics, StepRecord
from .model import LinkedForest, Machine, layout
from .coloring import ColorAssignment, dct_new_colors, three_color
from .pairing import eliminate_twos, form_pairs
from .localize import localize
from .uniform import (BothColumns, both_columns, color_and_pair, enforce_uniformity,
                      merge_pairs, opposite_pair_shortcut, partner_columns)
from .orientation import (OrientationKey, derive_orientation, fold_array, pool_short_lists,
                          uniform_contraction_pass)
from .ranking import (RankResult, RankRun, contract_to_threshold, list_rank,
                      pointer_jump, replay_ranks, sequential_rank, wyllie_rank)
from .workloads import Workload, generate

__all__ = [name for name in dir() if not name.startswith("_")]
