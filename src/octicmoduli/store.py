"""On-disk storage for derived J-polynomial caches and packaged data.

Derived artifacts (syzygy blocks, conic/quartic coefficient polynomials)
are expensive to recompute, so they are written as line-oriented text files
keyed by a content hash of (catalogue version, file format, artifact
identifier).  The header line carries that key, the identifier and the
sha256 of the body below it.  Reads consult the user cache directory
first, then the data files shipped with the package.  A file whose header
is missing, whose key is not the identifier's, or whose body digest is
missing or does not match raises CacheCorrupt, in the cache as in the
package.
"""

import hashlib
import os

from .errors import CacheCorrupt
from .jpoly import JPolynomial

CATALOGUE_VERSION = "octic-catalogue-2"

#: the file format, part of every key: a file written before the header
#: carried the body digest has another name, so it is never looked up
ARTIFACT_FORMAT = "body-sha256"

_ENV_VAR = "OCTICMODULI_CACHE"
_override_dir = None


def set_cache_dir(path):
    """Process-wide override used by the command line front end."""
    global _override_dir
    _override_dir = path


def cache_dir():
    if _override_dir:
        return _override_dir
    env = os.environ.get(_ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "octicmoduli")


def data_dir():
    return os.path.join(os.path.dirname(__file__), "data")


def content_key(identifier):
    h = hashlib.sha256()
    h.update(CATALOGUE_VERSION.encode())
    h.update(b"\0")
    h.update(ARTIFACT_FORMAT.encode())
    h.update(b"\0")
    h.update(identifier.encode())
    return h.hexdigest()[:16]


def artifact_filename(identifier):
    safe = identifier.replace(",", "_").replace("(", "").replace(")", "")
    return "%s-%s.jpoly" % (safe, content_key(identifier))


def write_artifact(identifier, named_polys):
    """named_polys: list of (name, JPolynomial), written to the cache
    directory. Returns the path."""
    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, artifact_filename(identifier))
    body = "".join("%s | %s\n" % (name, poly.serialize())
                   for name, poly in named_polys)
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as fh:
        fh.write("# octicmoduli %s %s %s\n" % (
            content_key(identifier), identifier, _digest(body)))
        fh.write(body)
    os.replace(tmp, path)
    return path


def read_artifact(identifier):
    """Returns list of (name, JPolynomial) or None when absent."""
    fname = artifact_filename(identifier)
    for directory in (cache_dir(), data_dir()):
        path = os.path.join(directory, fname)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            header, _, body = fh.read().partition("\n")
        if not header.startswith("# octicmoduli "):
            raise CacheCorrupt("missing header in %s" % path)
        fields = header.split()
        if len(fields) < 3:
            raise CacheCorrupt("malformed header in %s" % path)
        if fields[2] != content_key(identifier):
            raise CacheCorrupt("hash mismatch in %s" % path)
        if len(fields) < 5:
            raise CacheCorrupt("missing body digest in %s" % path)
        if fields[4] != _digest(body):
            raise CacheCorrupt("body digest mismatch in %s" % path)
        out = []
        for line in body.splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            name, _, payload = line.partition(" | ")
            out.append((name.strip(), JPolynomial.deserialize(payload)))
        return out
    return None


def _digest(body):
    return hashlib.sha256(body.encode()).hexdigest()


def read_data_polys(basename):
    """Read a packaged data file of named J-polynomials (no hash key)."""
    path = os.path.join(data_dir(), basename)
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, payload = line.partition(" | ")
            out.append((name.strip(), JPolynomial.deserialize(payload)))
    return out
