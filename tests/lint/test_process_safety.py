"""process-safety: picklable pool targets."""

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

    def test_real_process_backend_passes(self):
        """The real runtime hands only module-level targets to its processes."""
        from pathlib import Path

        import repro
        from repro.lint import run_lint

        runtime_dir = Path(repro.__file__).parent / "runtime"
        report = only(run_lint(runtime_dir), RULE)
        assert report.findings == []
