"""Exception hierarchy for the specloop harness."""


class SpecloopError(Exception):
    """Base class for all harness errors."""


# --- annotation model ---

class AcslError(SpecloopError):
    """Base class for annotation parsing/weaving errors."""


class ClassificationError(AcslError):
    """A clause keyword is not one of the eleven supported constructs."""


class MalformedAnnotation(AcslError):
    """An annotation comment is structurally broken (unterminated comment,
    missing clause terminator, clause with no anchorable target)."""


class AnchorNotFound(AcslError):
    """An annotation anchor does not resolve in the target source."""


# --- configurations ---

class ConfigError(SpecloopError):
    """Base class for configuration errors."""


class UnknownConfiguration(ConfigError):
    """Requested configuration name is not one of the canonical four."""


class MissingTemplate(ConfigError):
    """No prompt template exists for the requested configuration/phase."""


# --- oracle ---

class OracleError(SpecloopError):
    """Base class for oracle failures."""


class OracleUnavailable(OracleError):
    """Transport to the live oracle failed after the retry budget."""


class EmptyCompletion(OracleError):
    """The oracle returned a completion with no usable annotations."""


class UnparseableCompletion(OracleError):
    """A completion's annotations are malformed or use an unsupported construct."""


class FixtureMissing(OracleError):
    """The replay oracle has no fixture for the requested key."""


# --- verifier ---

class VerifierError(SpecloopError):
    """Base class for verifier adapter errors."""


class VerifierNotInstalled(VerifierError):
    """The external verifier executable could not be found."""


class UnmappableFailure(VerifierError):
    """No failing goal could be resolved to any annotation."""


# --- corpus / runner ---

class CorpusError(SpecloopError):
    """Base class for dataset loading errors."""


class EmptyCorpus(CorpusError):
    """The dataset directory contains no programs."""


class DuplicateId(CorpusError):
    """Two programs in the corpus share the same id."""


class MissingTargetFunction(CorpusError):
    """A manifest names a target function absent from the program."""


class CorruptRecords(SpecloopError, ValueError):
    """A records file holds a line, other than a torn last one, that is not
    a run record."""


# --- metrics ---

class MetricsError(SpecloopError):
    """Base class for metric computation errors."""


class IncompleteGrid(MetricsError):
    """The record set does not cover the full program-by-run grid."""


class UndefinedMetric(MetricsError):
    """A derived metric is undefined for the given inputs (e.g. a ratio
    against a zero baseline)."""
