"""Common error base for the toolkit, and the one reader of input files.

Every domain error carries a short machine-readable ``code`` of the form
``<module>.<kind>`` so the CLI can emit structured error reports.
"""


class ScanforgeError(Exception):
    """Base class for all domain errors raised by scanforge."""

    code = "scanforge.error"

    def to_dict(self) -> dict:
        return {"code": self.code, "message": str(self)}


class InputFileError(ScanforgeError):
    """An input file that cannot be read or is not UTF-8 text."""

    code = "cli.io"


def read_text(path) -> str:
    """A UTF-8 file's text; InputFileError naming the path if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFileError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{str(path)!r} is not UTF-8: {exc}") from exc
