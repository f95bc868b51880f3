package exp

// JournalPrefix and GridJournalPrefix expose the intact-prefix length
// the journal loaders compute, for the external torn-tail tests.
func JournalPrefix(path string) (int64, error) {
	_, n, err := readJournal(path)
	return n, err
}

func GridJournalPrefix(path string) (int64, error) {
	_, n, err := readGridJournal(path)
	return n, err
}
