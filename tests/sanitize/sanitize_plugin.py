"""Pytest plugin: run the C kernels under AddressSanitizer and UBSan.

Importing this module rebuilds every kernel with sanitizers: it swaps
``-O2`` in :data:`repro.ckernel.KERNEL_COMMAND` for :data:`SANITIZE`,
which also changes each library's cache key, so nothing built without
them is loaded.  ``sitecustomize.py`` beside it imports it in every
child interpreter, so subprocesses build and load the same libraries.
As a plugin it also raises the example budget of the kernel fuzz tests.
(PYTEST_DONT_REWRITE: ``sitecustomize`` imports it before pytest can.)

The sanitizer runtimes must come first in the process, Python's own
allocator must step aside so ASan sees every buffer, and pytest must
leave file descriptor 2 alone, or a report is lost with the process it
aborts::

    export PYTHONPATH=src:tests/sanitize PYTHONMALLOC=malloc
    export ASAN_OPTIONS=detect_leaks=0
    export LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)"
    python -m pytest --capture=sys -p sanitize_plugin tests/graph tests/partition ...
"""

from repro import ckernel

#: what replaces ``-O2``: stop at the first report of either sanitizer.
SANITIZE = (
    "-O1",
    "-g",
    "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
)

#: fuzz test name -> its example budget while the sanitizers watch.
FUZZ_BUDGET = {"test_arbitrary_bytes_are_declined_or_parsed_as_the_line_parser_does": 2000}

_at = ckernel.KERNEL_COMMAND.index("-O2")
ckernel.KERNEL_COMMAND = ckernel.KERNEL_COMMAND[:_at] + SANITIZE + ckernel.KERNEL_COMMAND[_at + 1 :]


def pytest_report_header():
    return f"sanitized kernels: {' '.join(ckernel.KERNEL_COMMAND)}"


def pytest_collection_modifyitems(items):
    from hypothesis import settings

    for item in items:
        budget = FUZZ_BUDGET.get(getattr(item, "originalname", None))
        if budget is not None:
            test = item.obj
            test._hypothesis_internal_use_settings = settings(
                test._hypothesis_internal_use_settings, max_examples=budget
            )
