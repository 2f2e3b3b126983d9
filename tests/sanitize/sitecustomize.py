"""Every interpreter started with this directory on ``PYTHONPATH`` builds
and loads the sanitized kernels (see ``sanitize_plugin``)."""

import sanitize_plugin  # noqa: F401
