from mwslice.cli import main

raise SystemExit(main())
