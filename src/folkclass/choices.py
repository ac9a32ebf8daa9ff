"""Closed sets of option values shared by the library and the CLI parser.

Kept free of numpy, so that building the parser imports no numeric code.
"""

SCHEMES = ("native", "one-vs-all", "one-vs-one")   # svm multiclass schemes

REGIMES = ("resource-based", "personomy-based", "none")   # generator regimes
