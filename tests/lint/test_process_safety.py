"""process-safety: picklable pool targets, paired shared-memory lifecycles."""

from lintutil import only, rule_ids

RULE = ["process-safety"]


class TestFires:
    def test_lambda_process_target(self, lint_tree):
        report = lint_tree(
            {
                "runtime/bad_pool.py": """\
                import multiprocessing

                def launch():
                    p = multiprocessing.Process(target=lambda: None)
                    p.start()
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["process-safety"]
        assert "lambda" in report.findings[0].message

    def test_closure_submitted_to_pool(self, lint_tree):
        report = lint_tree(
            {
                "runtime/bad_submit.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def launch(items):
                    def work(item):
                        return item * 2
                    with ProcessPoolExecutor() as pool:
                        return [f.result() for f in [pool.submit(work, i) for i in items]]
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["process-safety"]
        assert "closure" in report.findings[0].message

    def test_unpaired_shm_create(self, lint_tree):
        report = lint_tree(
            {
                "runtime/leaky.py": """\
                from multiprocessing.shared_memory import SharedMemory

                def allocate(nbytes):
                    return SharedMemory(create=True, size=nbytes)
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["process-safety"]
        assert "leak" in report.findings[0].message

    def test_unpaired_helper_create(self, lint_tree):
        report = lint_tree(
            {
                "runtime/leaky_helper.py": """\
                from repro.runtime.shm import create_shared_array

                def allocate(template):
                    shm, array, spec = create_shared_array(template)
                    return array
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["process-safety"]


class TestQuiet:
    def test_module_level_target_passes(self, lint_tree):
        report = lint_tree(
            {
                "runtime/good_pool.py": """\
                import multiprocessing

                def _worker(conn):
                    conn.close()

                def launch(conn):
                    p = multiprocessing.Process(target=_worker, args=(conn,))
                    p.start()
                    return p
                """
            },
            rules=RULE,
        )
        assert report.findings == []

    def test_paired_shm_passes(self, lint_tree):
        report = lint_tree(
            {
                "runtime/tidy.py": """\
                from multiprocessing.shared_memory import SharedMemory

                def roundtrip(nbytes):
                    shm = SharedMemory(create=True, size=nbytes)
                    try:
                        return bytes(shm.buf[:1])
                    finally:
                        shm.close()
                        shm.unlink()
                """
            },
            rules=RULE,
        )
        assert report.findings == []

    def test_real_process_backend_passes(self):
        """runtime/process.py + shm.py obey the pairing discipline for real."""
        from pathlib import Path

        import repro
        from repro.lint import run_lint

        runtime_dir = Path(repro.__file__).parent / "runtime"
        report = only(run_lint(runtime_dir), RULE)
        assert report.findings == []
