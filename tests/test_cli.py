import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: an SEU checkpoint in the campaign-result layout (no sweep archive)
OLD_CHECKPOINT = Path(__file__).resolve().parent / "data" / "seu_prefix_cut_checkpoint.npz"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign", "MULT4"])
        assert args.device == "S12" and args.stride == 1
        assert args.jobs is None  # None -> default_jobs() at run time

    def test_campaign_jobs_flag(self):
        args = build_parser().parse_args(["campaign", "MULT4", "--jobs", "4"])
        assert args.jobs == 4


class TestCommands:
    def test_devices_lists_catalog(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "XCV1000" in out and "XQVR1000" in out and "S8" in out

    def test_implement(self, capsys):
        assert main(["implement", "LFSR1", "--device", "S8"]) == 0
        out = capsys.readouterr().out
        assert "slices" in out and "PIPs" in out

    def test_campaign_with_map(self, capsys, tmp_path):
        path = str(tmp_path / "map.npz")
        rc = main(
            [
                "campaign",
                "MULT3",
                "--device",
                "S8",
                "--stride",
                "7",
                "--detect-cycles",
                "48",
                "--persist-cycles",
                "32",
                "--save-map",
                path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sensitive" in out and "Sensitivity" in out
        import os

        assert os.path.exists(path)

    def test_orbit(self, capsys):
        rc = main(
            [
                "orbit",
                "--device",
                "S8",
                "--hours",
                "0.5",
                "--flare",
                "--flux-scale",
                "3000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "upsets" in out

    def test_scrub_stress(self, capsys):
        rc = main(
            [
                "scrub-stress",
                "--device",
                "S8",
                "--hours",
                "0.2",
                "--devices",
                "3",
                "--ber",
                "1e-6",
                "--transient-rate",
                "1e-3",
                "--sefi-rate",
                "1e-5",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet availability" in out
        assert "FALSE_ALARM" in out and "QUARANTINE" in out

    def test_campaign_jobs_matches_serial(self, capsys):
        base = ["campaign", "LFSR1", "--device", "S8", "--stride", "17",
                "--detect-cycles", "48", "--persist-cycles", "32"]
        assert main(base + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        assert "throughput:" in serial and "throughput:" in sharded
        # Everything but the timing lines is identical across engines.
        strip = lambda out: [  # noqa: E731
            ln for ln in out.splitlines()
            if "throughput" not in ln and "host" not in ln
        ]
        assert strip(serial) == strip(sharded)

    def test_campaign_checkpoint_and_resume(self, capsys, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        rc = main(
            [
                "campaign",
                "LFSR1",
                "--device",
                "S8",
                "--stride",
                "17",
                "--detect-cycles",
                "48",
                "--persist-cycles",
                "32",
                "--checkpoint",
                path,
            ]
        )
        assert rc == 0
        first = capsys.readouterr().out
        import os

        assert os.path.exists(path)
        rc = main(["campaign", "LFSR1", "--device", "S8", "--checkpoint", path, "--resume"])
        assert rc == 0
        resumed = capsys.readouterr().out
        assert first.splitlines()[0] == resumed.splitlines()[0]


class TestErrorHandling:
    def test_unknown_design_exits_cleanly(self, capsys):
        """A ReproError prints a message and returns nonzero — no traceback."""
        rc = main(["implement", "BOGUS99"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "BOGUS" in err

    def test_resume_without_checkpoint_errors(self, capsys):
        rc = main(["campaign", "LFSR1", "--device", "S8", "--resume"])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_with_missing_checkpoint_errors(self, capsys, tmp_path):
        rc = main(
            [
                "campaign",
                "LFSR1",
                "--device",
                "S8",
                "--checkpoint",
                str(tmp_path / "absent.npz"),
                "--resume",
            ]
        )
        assert rc == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_resume_of_a_non_sweep_archive_errors(self, capsys, tmp_path):
        """An archive without the sweep fields (here an old SEU
        checkpoint handed to ``multibit``) names the file and the missing
        fields instead of escaping as a KeyError."""
        path = str(tmp_path / "old.npz")
        shutil.copyfile(OLD_CHECKPOINT, path)
        rc = main(["multibit", "MULT3", "--device", "S8", "--trials", "8",
                   "--single-sensitivity", "0.05", "--checkpoint", path, "--resume"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "old.npz" in err and "n_space" in err


class TestEngineSubcommands:
    """The sweeps newly ported onto the shared campaign engine."""

    def test_multibit_parser_defaults(self):
        args = build_parser().parse_args(["multibit", "MULT4"])
        assert args.k == 2 and args.trials == 512 and args.jobs == 1
        assert args.checkpoint is None and not args.resume

    def test_multibit_runs(self, capsys):
        rc = main(
            [
                "multibit", "MULT3", "--device", "S8",
                "--k", "2", "--trials", "32", "--seed", "3",
                "--detect-cycles", "48", "--single-sensitivity", "0.05",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "k=2" in out and "throughput:" in out

    def test_multibit_jobs_matches_serial(self, capsys):
        base = [
            "multibit", "MULT3", "--device", "S8",
            "--k", "2", "--trials", "32", "--seed", "3",
            "--detect-cycles", "48", "--single-sensitivity", "0.05",
        ]
        assert main(base + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        assert serial.splitlines()[0] == sharded.splitlines()[0]

    def test_bist_coverage_runs(self, capsys, tmp_path):
        path = str(tmp_path / "bist.npz")
        base = [
            "bist-coverage", "--device", "S8", "--faults", "16",
            "--seed", "5", "--cycles", "64",
        ]
        rc = main(base + ["--checkpoint", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults detected" in out and "throughput:" in out
        import os

        assert os.path.exists(path)
        # A complete checkpoint resumes to the same report, nothing re-run.
        rc = main(base + ["--checkpoint", path, "--resume"])
        assert rc == 0
        resumed = capsys.readouterr().out
        assert out.splitlines()[0] == resumed.splitlines()[0]

    def test_resume_without_checkpoint_errors(self, capsys):
        rc = main(["multibit", "MULT3", "--device", "S8", "--resume",
                   "--single-sensitivity", "0.05", "--trials", "8"])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err


class TestOneImplementPerJob:
    """A sweep command implements each design once: the command's own
    ``implement`` and the sweep's context build share the engine's
    per-process design cache."""

    @pytest.fixture
    def implement_calls(self, monkeypatch):
        """Count ``repro.place.flow.implement`` calls, however bound."""
        import sys

        import repro.engine.cache as cache
        import repro.place.flow as flow

        calls = []
        real = flow.implement

        def counting(spec, device, *args, **kwargs):
            calls.append((spec.name, device.name))
            return real(spec, device, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "implement", None) is real:
                monkeypatch.setattr(module, "implement", counting)
        monkeypatch.setattr(cache, "_HW_CACHE", {})
        return calls

    def test_campaign_implements_once(self, capsys, implement_calls):
        rc = main([
            "campaign", "MULT3", "--device", "S8", "--stride", "7",
            "--detect-cycles", "48", "--persist-cycles", "32",
            "--jobs", "1", "--result-cache", "off",
        ])
        assert rc == 0
        assert len(implement_calls) == 1

    def test_bist_coverage_implements_each_variant_once(self, capsys, implement_calls):
        rc = main([
            "bist-coverage", "--device", "S8", "--faults", "16", "--seed", "5",
            "--cycles", "64", "--jobs", "1", "--result-cache", "off",
        ])
        assert rc == 0
        assert len(implement_calls) == 2
        assert len(set(implement_calls)) == 2  # variant 0 and variant 1


class TestClosedStdout:
    def test_reader_gone_exits_nonzero_without_traceback(self):
        """``repro ... | head -1``: the reader may close the pipe before
        the command prints; the CLI must fail quietly, not with a
        ``BrokenPipeError`` traceback."""
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child can print anything
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "devices"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        # Exit 1 with nothing on stderr: no traceback, and no
        # "Exception ignored ... BrokenPipeError" from the exit flush.
        assert (proc.returncode, proc.stderr.decode()) == (1, "")
