"""``python -m thermistor_fem``: the ``thermistor-fem`` command."""

from .cli import main

if __name__ == "__main__":
    main()
