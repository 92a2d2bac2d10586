"""Common error base for the toolkit, the one reader of input files, and
the one reader of the rows of the ``.snl``, ``.pat`` and ``.tnl`` formats.

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


# One line that holds tokens: (1-based line number, the line with its
# comment cut, its tokens).
Row = tuple[int, str, list[str]]


def token_rows(text: str) -> list[Row]:
    """The lines that hold tokens once their ``#`` comment is cut, in file order."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.partition("#")[0]
        words = body.split()
        if words:
            rows.append((lineno, body, words))
    return rows
