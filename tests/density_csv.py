"""Write a sampled density in the CSV format that ``cdeigen.cli`` reads, for
tests of ``load_density_csv`` and of the commands that take ``--csv``."""


def write_density_csv(h, path: str) -> None:
    """Write the sampled density h as ``theta,h`` rows, 17 significant digits."""
    with open(path, "w", newline="") as handle:
        handle.write("theta,h\n")
        for th, hv in zip(h.grid, h.values):
            handle.write(f"{th:.17g},{hv:.17g}\n")
