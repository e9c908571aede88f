"""Numerical laboratory for the linear kernels, integral representations, and
small-data pseudo-spectral dynamics of 2D compressible MHD without magnetic
diffusion near the (rho, u, b) = (1, 0, e1) equilibrium."""

import hashlib
import json
import os
from pathlib import Path

__version__ = "0.1.0"


def write_manifest(path, outputs, **fields) -> None:
    """Write a JSON run manifest at `path`: the caller's fields, the package
    version, and `outputs`, which maps each output file (relative to the
    manifest's directory) to the sha256 of its bytes."""
    path = Path(path)
    digests = {os.path.relpath(p, path.parent): hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in outputs}
    manifest = {**fields, "version": __version__, "outputs": digests}
    path.write_text(json.dumps(manifest, indent=2) + "\n")
