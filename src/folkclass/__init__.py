"""Folksonomy analytics and tag-based resource classification toolkit."""

from .folksonomy import (Bookmark, CategoryAssignment, Folksonomy, IngestReport,
                         TagFrequencies, corpus_statistics, filter_popular,
                         ingest_bookmarks, novelty_ratios, parse_bookmark_lines,
                         prune_small_categories, strip_reading_state)
from .vectors import FeatureVector, Vocabulary, build_vocabulary
from .representation import (RepresentationScheme, Selection, TextPipelineConfig,
                             Weighting, represent_resource, represent_text,
                             tag_vocabulary, top_k_tags)
from .weighting import (InverseFrequencyKind, correlate_weightings,
                        inverse_frequency, pearson, spearman, weight_resource)
from .svm import (LabeledDataset, LinearModel, OneVsOneModel, TrainConfig,
                  evaluate_accuracy, objective_value, self_train_2step, train,
                  train_binary, train_native, train_one_vs_all, train_one_vs_one)
from .committees import (MarginTable, combine, normalize_margins,
                         predict_committee, predict_committee_batch)
from .behavior import (UserProfile, UserSplit, all_profiles, descriptiveness,
                       orphan, rank_users, split_by_assignments, tpp, trr,
                       user_profile)
from .generator import RegimeConfig, generate, generate_bookmarks
from .harness import ExperimentSpec, hash_split, run_experiment, run_topk_sweep

__version__ = "0.1.0"
