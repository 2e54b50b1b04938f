"""A cold ``import diminish`` loads numpy and nothing heavier.

SciPy takes about a quarter of a second to import, more than the rest of the
package.  Only the Beta CDF and the geometry oracle need it, so
``scipy.special`` loads on the first Beta CDF that ``law_eval`` evaluates, and
``scipy.spatial`` loads with ``oracle`` (and so with ``verification`` and
``cli``).  The oracle's import stays eager on purpose: perfbench imports
``verification`` before it starts its clock, so a deferred Qhull import would
land inside the timed ``geometry-oracle`` operation.

Run as a script, this file checks a fresh interpreter and exits non-zero with
what it found wrong.  It uses ``sys.exit``, not ``assert``, so the check also
holds under ``python -O``::

    PYTHONPATH=src python -O tests/test_cold_start.py
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _scipy_packages():
    """The loaded ``scipy`` package and its loaded subpackages (``scipy.special``, ...)."""
    return sorted({".".join(name.split(".")[:2]) for name in sys.modules if name.split(".")[0] == "scipy"})


def cold_start_problems() -> list[str]:
    """What goes wrong in this interpreter; call it before anything imports scipy."""
    import numpy as np

    import diminish  # noqa: F401
    from diminish.distributions import beta_law, law_eval

    problems = []
    if _scipy_packages():
        problems.append(f"import diminish loaded {', '.join(_scipy_packages())}")
    grid = np.linspace(-0.25, 1.25, 241)
    got = law_eval(beta_law(1.4, 0.6), grid)
    from scipy import special

    if not np.array_equal(got, special.betainc(1.4, 0.6, np.clip(grid, 0.0, 1.0))):
        problems.append("law_eval of beta_law(1.4, 0.6) differs from scipy.special.betainc")
    if "scipy.spatial" in sys.modules:
        problems.append("the Beta CDF loaded scipy.spatial")
    import diminish.verification  # noqa: F401

    if "scipy.spatial" not in sys.modules:
        problems.append(
            "diminish.verification no longer loads scipy.spatial, so Qhull loads "
            "inside the first geometry-oracle call"
        )
    return problems


def test_cold_start():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr


if __name__ == "__main__":
    sys.exit("\n".join(cold_start_problems()) or None)
