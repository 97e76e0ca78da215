"""Set-up time of one fresh interpreter: ``import jetlag`` plus
``cli.load_config``, which parses every field text and builds the space.

Usage: python3 setup_probe.py SRC_DIR CONFIG_PATH -- prints the seconds,
normalised to the reference host speed (see hostspeed.py), then the wall
seconds.
"""

import sys

import hostspeed

sys.path.insert(0, sys.argv[1])

with hostspeed.Span(interval=0.02) as span:
    import jetlag  # noqa: F401
    from jetlag import cli

    cli.load_config(sys.argv[2])
print(f"{span.seconds:.9f} {span.wall:.9f}")
