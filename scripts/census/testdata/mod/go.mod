module mini

go 1.24
