"""Closed sets of option values shared by the library and the CLI parser.

Kept apart, so that building the parser imports no other folkclass module."""

SCHEMES = ("native", "one-vs-all", "one-vs-one")   # svm multiclass schemes
REGIMES = ("resource-based", "personomy-based", "none")   # generator regimes
LEVELS = ("top", "second")     # the category levels of a labels.CategoryAssignment
INVERSE_FREQUENCY_KINDS = ("irf", "iuf", "ibf", "none")   # weighting.InverseFrequencyKind
MEASURES = ("tpp", "trr", "orphan")   # behavior's per-user measures
DEFAULT_READING_STATE_TAGS = frozenset({"read", "currently-reading", "to-read"})
