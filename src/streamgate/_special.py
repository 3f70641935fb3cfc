"""The package's three ``scipy.special`` functions, imported on first use.

``expit`` (IID and dependent posteriors), ``ndtri`` (the tabular sampler)
and ``logsumexp`` (the ``verify`` oracles) are read as ``_special.expit``
and so on.  Importing ``scipy.special`` takes about a third of a second,
more than the rest of the package and numpy together, and set-up never
calls these functions: building a parser, a model, a detector or a
``SimConfig`` does not, nor do partial and tabular ``detect`` runs,
``--help`` or a refused command.  So the import waits for the first read
of one of the names, which also caches the function in this module's
globals; every later read is a plain attribute lookup.  The functions are
scipy's own, so every bit of their output is unchanged.
"""

_NAMES = ("expit", "logsumexp", "ndtri")


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special
    value = globals()[name] = getattr(scipy.special, name)
    return value
