"""Exception types shared across the codec."""


class DataError(ValueError):
    """Malformed or inconsistent input data (bad files, shape mismatches)."""


class ManifestError(DataError):
    """Light-field manifest is missing, malformed, or inconsistent."""


class PnmError(DataError):
    """PGM/PPM file cannot be parsed or does not match expectations."""


class ConfigError(DataError):
    """Invalid configuration key or value."""


class ModelError(DataError):
    """Malformed or inconsistent autoencoder model file."""


class TruncatedStreamError(DataError):
    """Entropy-coded stream ran out of bits before all symbols were decoded."""


class ContainerError(DataError):
    """Bitstream container is malformed (bad magic, bad version, bad level)."""


class TruncatedSectionError(ContainerError):
    """Container bytes end inside a level section.

    Carries the index of the last level whose section is complete so the
    caller can fall back to decoding the intact prefix, which
    truncate_container(data, last_complete_level) cuts.
    """

    def __init__(self, message: str, last_complete_level: int):
        super().__init__(message)
        self.last_complete_level = last_complete_level
