"""Exception hierarchy shared across the package, and the text-file reader
that turns a file that is not UTF-8 into a FormatError."""

from pathlib import Path


class TomographyError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(TomographyError, ValueError):
    """An argument or configuration value is invalid."""


class FormatError(ParameterError):
    """An input file is malformed."""


class ResourceError(TomographyError):
    """A configured resource limit would be exceeded."""


class StateError(TomographyError, RuntimeError):
    """The operation requires a gauge or state the object is not in."""


class DegenerateStateError(TomographyError, ArithmeticError):
    """A numerically zero state was found where a normalizable one is required."""


class EstimateOutOfRegime(TomographyError):
    """Fidelity estimate requested outside the asymptotic regime where it is meaningful."""


class PartialReconstructionError(TomographyError):
    """Fixed-basis reconstruction found a disconnected coefficient graph.

    ``components`` lists the connected components (as lists of computational
    basis indices); amplitudes are determined only up to one unknown constant
    per component.
    """

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        super().__init__(
            f"coefficient graph has {len(self.components)} connected components; "
            "relative phases between components are undetermined"
        )


def utf8_lines(path, newline=None):
    """Stream the lines of the UTF-8 text file ``path`` (``newline`` as for
    ``open``).  A file that does not decode raises FormatError naming the
    line and byte offset of its first bad byte."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield from f
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path) -> FormatError:
    # the streaming decoder knows offsets within its buffer only, so the
    # error path decodes the whole file again to find the first bad byte
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return FormatError(f"{path}: line {line}: byte {exc.start}: not UTF-8 ({exc.reason})")
    return FormatError(f"{path}: not UTF-8")
